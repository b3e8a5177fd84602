(** Constant-memory streaming decoders for the ingestion layer.

    {!fold_rows} runs an RFC-4180 CSV state machine over a byte source,
    yielding one decoded record (or one row-level error) at a time — the
    raw text is never retained beyond a fixed refill buffer and one
    reused row buffer, so ingest memory is bounded by the longest single
    row, not the file.

    Decoding rules:
    - fields are separated by [','], rows by ['\n']; a ['\r'] immediately
      before a row boundary is stripped (CRLF input parses like LF input);
    - a field starting with ['"'] is quoted: it may contain commas,
      ['""'] escapes for literal quotes, and raw newlines (which stay part
      of the value, so quoted fields span physical lines);
    - a quote character appearing after other content in an unquoted
      field, or any character other than [','] / end-of-row after a
      closing quote, is a deterministic row error (the RFC leaves such
      mid-field quotes undefined; we reject rather than guess);
    - an unterminated quote at end of input is a row error;
    - rows whose entire unquoted text is whitespace are silently dropped,
      like the blank lines the line-based loader used to skip.

    After a row error the machine resynchronizes at the next ['\n'] and
    keeps going, so a [Skip] policy can count bad rows and continue. *)

type source

(** [of_channel ?buf_size ic] streams from a channel through a fixed
    refill buffer ([buf_size] bytes, default 64 KiB). The caller keeps
    ownership of [ic] and must close it. *)
val of_channel : ?buf_size:int -> in_channel -> source

(** [of_string s] streams from an in-memory string, read in place. *)
val of_string : string -> source

(** [of_refill ~buf f] streams from an arbitrary byte producer through
    the refill buffer [buf]: [f buf] must write at most
    [Bytes.length buf] bytes at offset 0 and return how many it wrote,
    0 meaning end of input. [buf]'s contents are never read before a
    refill writes them, so the prediction daemon streams every request
    body of a worker straight off the socket through one buffer the
    worker owns. Raises [Invalid_argument] on an empty [buf]. *)
val of_refill : buf:bytes -> (bytes -> int) -> source

(** [read_into src dst pos len] reads up to [len] bytes into [dst] at
    [pos]: buffered bytes first, one refill otherwise. Returns the
    number of bytes moved; 0 means end of input. Used by the binary
    columnar decoder ({!Columnar}), interleaving safely with the
    character-level readers. *)
val read_into : source -> bytes -> int -> int -> int

(** [retries src] — transient refill errors (EINTR/EAGAIN, injected
    faults at the [stream.refill] point) retried so far. Each refill
    gets a bounded retry budget with jittered exponential backoff;
    exhausting it propagates the error. *)
val retries : source -> int

(** {1 CSV rows}

    One decoded row, as the bytes of its fields in a buffer the fold
    reuses: valid only during the callback that receives it, because the
    next row overwrites it. The run of ordinary bytes between two special
    ones ([,] [\n] [\r] ["], or ["] [\n] inside quotes) reaches it
    with one blit, so reading a field's number or testing it for a gap
    needs no string. *)
type row

(** Fields in the row. *)
val fields : row -> int

(** [text r] holds every field of [r]; the slices below index into it.
    Do not write to it. *)
val text : row -> bytes

(** [strings r] is every field of [r] as a string, untrimmed. *)
val strings : row -> string array

(** [trimmed_start r k] and [trimmed_end r k] bound field [k] of [text r]
    with what [String.trim] removes ([' '], ['\012'], ['\n'], ['\r'],
    ['\t']) taken off both ends. An all-space field is the empty slice
    at its start, so [trimmed_start r k <= trimmed_end r k]. Raise
    [Invalid_argument] unless [0 <= k < fields r]. *)
val trimmed_start : row -> int -> int

val trimmed_end : row -> int -> int

(** [trimmed r k] is [String.trim (strings r).(k)], made from the
    slice alone. *)
val trimmed : row -> int -> string

(** [fold_rows src ~init ~f] folds [f] over every row of [src]. [line] is
    the 1-based physical line on which the row started; the payload is
    the row, or a description of why it could not be decoded. [f] must
    not keep the row past its return. A source can only be folded
    once. *)
val fold_rows :
  source -> init:'a -> f:('a -> line:int -> (row, string) result -> 'a) -> 'a

(** [fold_csv src ~init ~f] is {!fold_rows} with each row's fields
    copied into a fresh string array. *)
val fold_csv :
  source -> init:'a -> f:('a -> line:int -> (string array, string) result -> 'a) -> 'a

(** [fold_lines src ~init ~f] folds over physical lines (terminated by
    ['\n'] or end of input; a trailing ['\r'] is stripped). Used by the
    line-oriented ARFF reader. *)
val fold_lines : source -> init:'a -> f:('a -> line:int -> string -> 'a) -> 'a
