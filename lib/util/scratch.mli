(** Reusable request buffers, owned by one worker.

    A serving worker handles one request at a time, and every request
    needs the same row-sized arrays and byte buffers: the body's refill
    buffer, decoded columns, labels, weights, predictions, the compiled
    engine's per-request arrays, the response text. Allocated per
    request, each array over 256 words goes straight to the major heap,
    and the major collector then stops every domain of the process.
    A [Scratch.t] keeps those buffers from one request to the next.

    Ownership: a value belongs to one domain at a time. The serving
    front end creates one per worker domain (and a new one when it
    respawns a dead worker) and hands it down with each request; a
    function that takes [?scratch] and gets none uses a fresh value for
    that call alone, so its results alias nothing.

    Each buffer lives under a {!key} and an index [at] (default 0), so a
    module borrows a family of buffers, one per column say, under one
    key. A module defines its keys once, at top level. A borrow asks for
    at least [n] cells and reuses the buffer already there when it is
    that large, whatever size of request left it: a worker warmed by
    its largest request serves every smaller one from the same buffers.
    Only a request larger than any before replaces a buffer. Contents
    are whatever the last user left, and a buffer may be longer than
    asked: every caller writes a cell before it reads it, and reads
    only the cells it asked for. The same key and index always name the
    same buffer, so a result built in one is valid only until the next
    borrow of that key by the same worker.

    Retention: the worker calls {!trim} after each request, which keeps
    at most {!retain_limit} bytes in all, so one huge request cannot pin
    its memory in the worker after it ends. *)

type t

val create : unit -> t

(** The most bytes {!trim} leaves retained (4 MiB), over all buffers
    of one value. *)
val retain_limit : int

type key

(** A fresh key, distinct from every other key of the process. *)
val key : unit -> key

(** [floats t k n] is an array of at least [n] cells. *)
val floats : t -> key -> ?at:int -> int -> float array

(** [ints t k n] is an array of at least [n] cells. *)
val ints : t -> key -> ?at:int -> int -> int array

(** [bools t k n] is an array of at least [n] cells. *)
val bools : t -> key -> ?at:int -> int -> bool array

(** [bytes t k n] is a buffer of at least [n] bytes, at index 0. *)
val bytes : t -> key -> int -> bytes

(** [buffer t k] is an empty [Buffer.t], at index 0. *)
val buffer : t -> key -> Buffer.t

(** [retained t] is the bytes [t] holds: the cells of its arrays and
    byte buffers, and the length of each [Buffer.t]'s last contents. *)
val retained : t -> int

(** [trim t] drops buffers, largest first, until [retained t] is at
    most {!retain_limit}. Run between requests: inside one, a dropped
    buffer would only be borrowed afresh by the rest of the request. *)
val trim : t -> unit
