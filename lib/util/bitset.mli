(** Dense bitsets over machine words.

    The compiled scoring engine reports each rule list's coverage as a
    bitset over the record index space, and the booster and the drift
    monitor walk its set bits. Words are OCaml native ints — 63
    usable bits each — rather than boxed [int64]s, so every bulk
    operation stays allocation-free.

    Bulk operations live inside this module (one call per pass, tight
    loops internally); hot fill loops may write [words] directly. *)

(** Usable bits per word (63 on a 64-bit platform). *)
val bits_per_word : int

(** [words_for n] is the number of words needed for [n] bits. *)
val words_for : int -> int

type t = private { words : int array; n_bits : int }

(** [create n] is an all-zeros bitset of [n] bits. *)
val create : int -> t

(** [full n] is an all-ones bitset of [n] bits; the unused tail bits of
    the last word are zero, an invariant every operation preserves. *)
val full : int -> t

val length : t -> int

(** [words t] is the backing word array (bit [i] is bit [i mod 63] of
    word [i / 63]). Callers that write it directly must keep the unused
    tail bits of the last word zero. *)
val words : t -> int array

val set : t -> int -> unit

val get : t -> int -> bool

(** [fill_ones t] / [fill_zeros t] reset every bit in place. *)
val fill_ones : t -> unit

val fill_zeros : t -> unit

(** [inter ~into b] is [into := into AND b]. *)
val inter : into:t -> t -> unit

(** [diff ~into b] is [into := into AND NOT b]. *)
val diff : into:t -> t -> unit

val is_empty : t -> bool

(** [count t] is the number of set bits. *)
val count : t -> int

(** [iter t f] applies [f] to every set bit index in ascending order. *)
val iter : t -> (int -> unit) -> unit

(** [to_indices t] is the ascending array of set bit indices. *)
val to_indices : t -> int array
