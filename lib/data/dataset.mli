(** Columnar, weighted, labeled dataset.

    Records are rows; each attribute is stored as one column (floats for
    numeric, value indices for categorical). Every record carries a class
    index into [classes] and a positive weight. All learners in this
    repository count weights rather than records, which is how the paper's
    stratified "-we" variants are expressed. *)

type column =
  | Num of float array
  | Cat of int array

type t = private {
  attrs : Attribute.t array;
  columns : column array;
  labels : int array;
  classes : string array;
  weights : float array;
  n : int;
      (** the record count: the first [n] cells of [columns], [labels]
          and [weights] (see [?n] on {!create}) *)
  sort_cache : Sort_cache.t;
      (** lazily filled per-column sorted orders; shared by weight
          variants ([with_weights], [stratify]), fresh for new columns *)
}

(** [create ~attrs ~columns ~labels ~classes ()] builds a dataset with
    unit weights (override with [?weights]). Validates that all columns
    and label/weight arrays have equal length, that column kinds match the
    schema, that labels index [classes], and that categorical codes are in
    range. Raises [Invalid_argument] otherwise.

    [?n] builds a dataset of [n] records over longer arrays: columns,
    labels and weights need at least [n] cells, and only the first [n]
    are records. The serving path scores a request in buffers its worker
    reuses from larger requests this way. Every function of this module
    reads only those [n] cells; code reading the record's arrays
    directly must bound its loops by [n], not by the array lengths. *)
val create :
  ?weights:float array ->
  ?n:int ->
  attrs:Attribute.t array ->
  columns:column array ->
  labels:int array ->
  classes:string array ->
  unit ->
  t

val n_records : t -> int

val n_attrs : t -> int

val n_classes : t -> int

(** [num_value t ~col i] reads a numeric cell; raises [Invalid_argument]
    if column [col] is categorical. *)
val num_value : t -> col:int -> int -> float

(** [cat_value t ~col i] reads a categorical cell code. *)
val cat_value : t -> col:int -> int -> int

(** [sorted_order t ~col] is the memoized ascending order of numeric
    column [col] over the whole dataset: record indices sorted by value,
    ties broken by record index. The first call per column costs one
    argsort; later calls return the same (physically shared) array,
    which callers must not mutate. Raises [Invalid_argument] on a
    categorical column. *)
val sorted_order : t -> col:int -> int array

(** [sorted_rank t ~col] is the inverse permutation of
    [sorted_order t ~col]: [rank.(i)] is record [i]'s position in the
    sorted order. Same memoization and sharing rules. *)
val sorted_rank : t -> col:int -> int array

(** [sort_entry_opt t ~col] is the cached sort entry for numeric column
    [col] if an earlier call already built one, and [None] otherwise
    (including on categorical columns). Never triggers the argsort. *)
val sort_entry_opt : t -> col:int -> Sort_cache.entry option

(** [n_distinct_num t ~col] is the number of distinct values (under
    [Float.compare]) in numeric column [col], computed from the cached
    sorted order. *)
val n_distinct_num : t -> col:int -> int

val label : t -> int -> int

val weight : t -> int -> float

(** [class_index t name] finds a class by name. Raises [Not_found]. *)
val class_index : t -> string -> int

(** [class_weight t c] is the total weight of class [c]. *)
val class_weight : t -> int -> float

(** [class_counts t] is the per-class total weight vector. *)
val class_counts : t -> float array

(** [total_weight t] is the sum of all record weights. *)
val total_weight : t -> float

(** [with_weights t w] shares columns and labels but carries new weights. *)
val with_weights : t -> float array -> t

(** [stratify t ~target] gives every record of class [target] the weight
    (Σ weight of other classes) / (count of target records), so the target
    class reaches equal aggregate strength — the paper's "-we" training
    sets. Non-target records keep their weights. *)
val stratify : t -> target:int -> t

(** [subset t indices] materializes the selected records (in the given
    order) into a new dataset. *)
val subset : t -> int array -> t

(** [append a b] concatenates two datasets with identical schemas and
    class tables. Raises [Invalid_argument] on schema mismatch. *)
val append : t -> t -> t

(** [binary_labels t ~target] is a bool array marking membership of the
    target class. *)
val binary_labels : t -> target:int -> bool array

(** [equal a b] is structural equality of schema, classes, labels,
    weights and cell contents (numeric cells compared with
    [Float.compare], so equal nan patterns count as equal). Used by the
    streaming-vs-in-memory loader equivalence tests. *)
val equal : t -> t -> bool

(** [pp_summary] prints the schema, per-class weights and record count. *)
val pp_summary : Format.formatter -> t -> unit
