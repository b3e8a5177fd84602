(** One batch of decoded rows and the row policy every decoder shares.

    The CSV, ARFF and [.pnc] loads and the CSV and [.pnc] serving paths
    all read rows through this module, so the loader that trains a
    model and the decoder that serves it read a row the same way. A
    decoder only turns its input into cells, missing marks and row
    errors. This module owns the typed column stores and labels, one
    missing mask per column, the per-row decision (keep, skip with a
    reason, or a [Strict] error), imputation, in-place compaction of
    kept rows and the {!Ingest_report} counts.

    The rules (DESIGN.md, "Error policy"):
    - A missing cell ([?] or empty text, or a bitmap bit) and a value
      outside a closed dictionary are gaps: [Strict] raises, [Skip]
      drops the row, [Impute] fills the cell. NaN is a value.
    - A missing label (loads only) raises under [Strict] and drops the
      row otherwise.
    - Rows are decided in order; within a row the first problem in
      attribute order decides (the file's order when loading, a [.pnc]
      file's labels last; the model's when serving).
    - [Impute] fills a numeric gap with the median of the kept rows'
      present non-NaN values, a categorical one with the most frequent
      present code (the lowest on a tie); with no present value, 0.0 or
      code 0. A categorical column with an empty dictionary raises.

    Rows arrive in one of two ways. Row by row ({!row} ... {!keep}):
    the decoder writes a row's cells into slot {!row} and reports its
    gaps and errors as it meets them; a decision that drops the row
    raises {!Skipped}, and the slot is reused. Column by column
    ({!append} or {!lend}, then {!decide}): the decoder hands over whole
    columns and their masks, and {!decide} judges the rows in order. *)

(** [blank cell]: a trimmed text cell is missing, ["?"] or empty, in
    every text decoder under every policy. *)
val blank : string -> bool

(** [blank_slice text lo hi] is [blank] of the trimmed cell that is the
    bytes of [text] from [lo] to [hi] (exclusive), without making the
    string ({!Stream.trimmed_start} and {!Stream.trimmed_end} give such
    bounds). *)
val blank_slice : bytes -> int -> int -> bool

(** Raised by the decision functions when the policy drops the row
    being decoded; the row is already counted. *)
exception Skipped

(** Where the stores live: fresh arrays for a load, the serving
    worker's {!Pn_util.Scratch} for a request. A load decides labels
    (a missing one is a problem); serving carries them for metrics
    only. *)
type mode = Load | Serve of Pn_util.Scratch.t

type t

(** [create ~policy ~where ~error ~capacity mode attrs] is an empty
    batch over [attrs], in decision order, with room for [capacity]
    rows. A [Strict] error raises [error "<where> <n>: <reason>"], so
    each decoder keeps its exception and location prefix (["line"] or
    ["row"]). A batch of capacity 0 that never calls {!row} (a
    kind-inference scan) decides rows without storing them. *)
val create :
  policy:Ingest_report.policy ->
  where:string ->
  error:(string -> exn) ->
  capacity:int ->
  mode ->
  Attribute.t array ->
  t

val report : t -> Ingest_report.t

(** Rows in the batch: kept rows, once decided. *)
val length : t -> int

(** The stores, one per attribute, and the labels. Only the first
    {!length} cells are rows; the arrays may be longer, and {!row} may
    replace them. *)
val columns : t -> Dataset.column array

val labels : t -> int array

(** {1 Row by row} *)

(** [row t] is the slot of the row about to be decoded, growing the
    stores when they are full. *)
val row : t -> int

(** [keep t] counts the row decoded into slot [row t] as kept. *)
val keep : t -> unit

(** [missing t ~line a]: attribute [a] of the row has no value. *)
val missing : t -> line:int -> int -> unit

(** [outside t ~line a value]: attribute [a] holds [value], which its
    closed dictionary lacks. *)
val outside : t -> line:int -> int -> string -> unit

(** [no_label t ~line]: the row has no label (loads). Always raises. *)
val no_label : t -> line:int -> 'a

(** [reject t ~line reason]: the row cannot be decoded (wrong arity,
    bad quoting, an unreadable cell). Always raises. *)
val reject : t -> line:int -> string -> 'a

(** {1 Column by column} *)

(** [append t ~rows ~columns ~masks ~labels] copies the first [rows]
    cells of a group's columns, masks and labels after the batch's
    rows (a whole-file load). *)
val append :
  t ->
  rows:int ->
  columns:Dataset.column array ->
  masks:bool array option array ->
  labels:int array ->
  unit

(** [lend t ~n ~columns ~masks ~outside ~labels] makes the caller's
    arrays the batch, without copying (a served row group). A negative
    code [c] in a categorical column whose [outside] dictionary is
    given stands for the value [dict.(-1 - c)], which the model's
    dictionary lacks. [labels] may be empty. *)
val lend :
  t ->
  n:int ->
  columns:Dataset.column array ->
  masks:bool array option array ->
  outside:string array option array ->
  labels:int array ->
  unit

(** [decide t ~first] judges the batch's rows in order, row [i] being
    line [first + i], and compacts the kept ones in place. A batch with
    no mask, no outside values and no labels to check costs no per-row
    work. *)
val decide : t -> first:int -> unit

(** {1 Finishing} *)

(** [impute t] fills the gaps of the kept rows under [Impute]. *)
val impute : t -> unit

(** [clear t] empties the batch for the next chunk. *)
val clear : t -> unit

(** [dataset t ~attrs ~classes] imputes (with [attrs], whose
    dictionaries a CSV load learns as it goes) and builds the dataset
    of the kept rows over exact-length arrays. *)
val dataset : t -> attrs:Attribute.t array -> classes:string array -> Dataset.t
