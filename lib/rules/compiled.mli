(** Compiled rule-box engine for first-match rule evaluation.

    The reference serving path walks records one at a time, re-testing
    every condition of every rule through boxed [Dataset] accessors.
    This module compiles a batch of rule lists — a PNrule model's P- and
    N-lists, or one single-rule list per member of a boosted ensemble —
    once, into boxes:

    + every tested column gets a key space: a categorical column's
      codes, or a numeric column's threshold ladder — its conditions'
      distinct thresholds [c_0 < … < c_{k-1}], a value's rank being
      [2·#(cuts < v)], plus 1 when [v] is a cut, and [2k+1] for nan —
      with a bucket table over the cuts that ranks a value by one
      lookup instead of a binary search;
    + every rule becomes one key interval per column it tests, the
      intersection of its conditions there.

    A request then computes each tested column's keys and key counts
    (one pool job per column). A column the dataset's
    {!Pn_data.Sort_cache} already holds keys records by their position
    in the cached order, its ladder ranks becoming runs of that order,
    so a training pass pays no per-record work for it. Each rule is
    walked from the column whose interval holds the fewest records — a
    difference of two counts — testing only those records' other keys.
    A record order (a counting sort) is built only for columns that
    drive some rule (one pool job each), and the walks run one pool job
    per list. {!eval} writes each list's first-match indices, {!cover}
    its coverage bitset. Every job writes disjoint memory, so results
    are bit-identical at every pool size — and identical to the
    per-record reference path ([Rule_list.first_match]), which remains
    the oracle the property tests check against.

    The per-request arrays (keys, counts, orders, and {!eval}'s
    outputs) are borrowed from [scratch] when one is given, so a
    serving worker reuses them from request to request; {!eval}'s
    result then aliases that scratch, and its arrays may be longer
    than the dataset: only their first [Dataset.n_records ds] cells are
    results. Without one, each call uses a fresh scratch and the arrays
    have exactly that length. Only the first [Dataset.n_records ds]
    cells of a dataset's columns are read. *)

type t

(** [compile lists] deduplicates conditions across [lists] (each an
    ordered rule array, first match wins) and returns the compiled
    program. Compilation touches no data, so one program serves any
    number of datasets over the same schema; a model compiles its
    program once. *)
val compile : Rule.t array array -> t

(** Number of rule lists the program was compiled from. *)
val n_lists : t -> int

(** Number of distinct conditions after deduplication. *)
val n_distinct_conditions : t -> int

(** [eval ?pool t ds] resolves first-match for every compiled list over
    every record: [(eval t ds).(l).(i)] is the index of the first rule
    of list [l] matching record [i], or [-1] when none matches (an
    empty rule matches everything). [pool] defaults to
    {!Pn_util.Pool.get_default}; the result does not depend on the pool
    size. Raises [Invalid_argument] if a condition's column kind
    disagrees with the dataset schema, like the reference path. *)
val eval :
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  t ->
  Pn_data.Dataset.t ->
  int array array

(** [cover ?pool t ds] is each compiled list's coverage: bit [i] of
    [(cover t ds).(l)] is set when some rule of list [l] matches record
    [i] (an empty rule matches every record), so it equals
    [(eval t ds).(l).(i) >= 0]. Each bitset has length
    [Dataset.n_records ds]. Shares {!eval}'s keys, pool behaviour and
    exceptions. *)
val cover :
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  t ->
  Pn_data.Dataset.t ->
  Pn_util.Bitset.t array

(** [first_match_all ?pool rules ds] compiles and evaluates a single
    rule list: per-record first-match indices, [-1] for no match. *)
val first_match_all : ?pool:Pn_util.Pool.t -> Rule.t array -> Pn_data.Dataset.t -> int array

(** {1 The threshold ladder, for tests} *)

(** [cuts t ~col] is the ladder of column [col]: the distinct non-nan
    thresholds of the program's conditions on it, ascending. Raises
    [Invalid_argument] when no condition tests [col]. *)
val cuts : t -> col:int -> float array

(** [ladder_rank t ~col v] is [v]'s rank on [col]'s ladder as the
    bucket table computes it: [2·#(cuts < v)], plus 1 when [v] equals a
    cut, and [2k+1] for nan. *)
val ladder_rank : t -> col:int -> float -> int
