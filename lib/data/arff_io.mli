(** ARFF (Attribute-Relation File Format) import — the native format of
    the Weka lineage RIPPER and C4.5 belong to.

    Supported subset: [@relation], [@attribute name numeric|real|integer]
    and [@attribute name {v1,v2,…}] declarations, and a comma-separated
    [@data] section with optional single-quoted values. The class
    attribute defaults to the last declared one. Files are decoded line
    by line through {!Stream} (CRLF tolerated, constant decoding memory);
    sparse rows, strings and dates are not supported and raise
    [Parse_error].

    Missing values ([?] or an empty cell) and values outside their
    declared nominal set are routed through the row-level error policy
    ({!Rows}): under [Strict] (the default) they raise [Parse_error];
    under [Skip] the row is dropped and counted; under [Impute] the cell
    is filled with the column median (numeric) or majority value
    (nominal) — except for the class label, which always drops the row.
    Structurally bad rows (wrong arity, unparseable numerics) raise
    under [Strict] and are dropped and counted otherwise. *)

exception Parse_error of string

(** [parse_string ?class_attribute ?policy s] parses ARFF text. The
    class attribute must be nominal. [policy] defaults to
    [Ingest_report.Strict]. *)
val parse_string :
  ?class_attribute:string -> ?policy:Ingest_report.policy -> string -> Dataset.t

val parse_string_with_report :
  ?class_attribute:string ->
  ?policy:Ingest_report.policy ->
  string ->
  Dataset.t * Ingest_report.t

(** [load ?class_attribute ?policy path] reads an ARFF file. Raises
    [Parse_error] or [Sys_error]. *)
val load :
  ?class_attribute:string -> ?policy:Ingest_report.policy -> string -> Dataset.t

val load_with_report :
  ?class_attribute:string ->
  ?policy:Ingest_report.policy ->
  string ->
  Dataset.t * Ingest_report.t

(** [save ds path] writes the dataset as ARFF (relation "pnrule",
    class attribute last, named "class"). *)
val save : Dataset.t -> string -> unit
