(** Row-level error policies and ingestion accounting for the CSV, ARFF
    and [.pnc] loaders and both serving paths, which apply them through
    one row store ({!Rows}, where the rules are listed).

    A {!policy} decides what happens to a data row that cannot be
    decoded cleanly — wrong arity, malformed quoting, a missing cell
    ([?] or empty text, or a [.pnc] bitmap bit), a value outside a
    closed dictionary, or a missing class label. Whatever the policy,
    the decoder fills in a report so callers can tell how much of the
    feed actually made it into the dataset. *)

type policy =
  | Strict  (** any bad row raises the decoder's error *)
  | Skip  (** bad rows are dropped and counted *)
  | Impute
      (** missing cells and values outside a closed dictionary are
          filled with the column median (numeric) or majority value
          (categorical); other bad rows — wrong arity, malformed
          quoting, missing class labels — are dropped and counted as
          under [Skip] *)

val policy_name : policy -> string

(** [policy_of_string s] parses ["strict"], ["skip"] or ["impute"]. *)
val policy_of_string : string -> policy option

type t = {
  mutable rows_read : int;  (** data rows seen (header and blank lines excluded) *)
  mutable rows_kept : int;  (** rows that made it into the dataset *)
  mutable rows_skipped : int;  (** rows dropped by [Skip]/[Impute] *)
  mutable cells_imputed : int;  (** cells filled by [Impute] *)
  mutable io_retries : int;
      (** transient IO errors retried while feeding this ingest
          ({!Stream.retries} of the underlying source) *)
  mutable errors : (int * string) list;
      (** sample of skip reasons as [(line, message)], oldest first;
          capped at {!max_errors} *)
}

(** Number of skip reasons retained in [errors]. *)
val max_errors : int

val create : unit -> t

val row_read : t -> unit

val row_kept : t -> unit

(** [row_skipped t ~line msg] counts a dropped row and retains the reason
    while fewer than {!max_errors} are stored. *)
val row_skipped : t -> line:int -> string -> unit

(** [add_io_retries t n] accounts [n] transient-error retries. *)
val add_io_retries : t -> int -> unit

val pp : Format.formatter -> t -> unit
