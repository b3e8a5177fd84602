(** CSV import/export.

    The format is comma-separated values with a header row, decoded by
    the streaming RFC-4180 state machine in {!Stream}: quoted fields may
    contain commas, escaped quotes and raw newlines, CRLF line endings
    parse like LF, and the raw text is never held in memory (the loaders
    make two streaming passes — a schema scan, then the build).

    The class column is named by [~class_column] (default: the last
    column). A column is inferred numeric when every non-missing cell
    parses as a {e finite} float ("nan"/"inf" literals stay categorical);
    otherwise it is categorical with values in first-seen order.

    A "?" or empty cell is missing under every policy. Rows follow
    {!Ingest_report.policy} through {!Rows}:
    - [Strict] (default): a missing cell or label, a decode error or a
      wrong arity raises {!Parse_error}.
    - [Skip]: such rows are dropped and counted.
    - [Impute]: missing cells are filled with the column median
      (numeric) or majority value (categorical); the other bad rows are
      dropped and counted. *)

exception Parse_error of string

(** [load ?class_column ?policy ?buf_size path] reads a CSV file into a
    dataset with unit weights. [buf_size] sizes the streaming refill
    buffer (default 64 KiB; exposed for boundary tests). Raises
    [Parse_error] on malformed input and [Sys_error] on IO failure. *)
val load :
  ?class_column:string ->
  ?policy:Ingest_report.policy ->
  ?buf_size:int ->
  string ->
  Dataset.t

(** [load_with_report] additionally returns the ingest accounting —
    essential under [Skip]/[Impute] to see how much of the feed
    survived. *)
val load_with_report :
  ?class_column:string ->
  ?policy:Ingest_report.policy ->
  ?buf_size:int ->
  string ->
  Dataset.t * Ingest_report.t

(** [save ds path] writes the dataset (class column last, named "class").
    Weights are not persisted. *)
val save : Dataset.t -> string -> unit

(** [escape s] quotes a single field for CSV output when it contains a
    comma, quote or line break (used by the streaming prediction
    writer). *)
val escape : string -> string

(** [parse_string ?class_column ?policy s] parses CSV text directly. *)
val parse_string :
  ?class_column:string -> ?policy:Ingest_report.policy -> string -> Dataset.t

val parse_string_with_report :
  ?class_column:string ->
  ?policy:Ingest_report.policy ->
  string ->
  Dataset.t * Ingest_report.t
