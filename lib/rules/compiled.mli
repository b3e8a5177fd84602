(** Compiled bitset scoring engine for first-match rule evaluation.

    The reference serving path walks records one at a time, re-testing
    every condition of every rule through boxed [Dataset] accessors.
    This module compiles a batch of rule lists — a PNrule model's P- and
    N-lists, or every list of a one-vs-rest multiclass ensemble — into a
    form that evaluates in a handful of columnar passes:

    + the distinct conditions across all lists are deduplicated, so a
      test shared by many rules (or many per-class models) is evaluated
      once per record instead of once per occurrence;
    + each distinct condition is evaluated into a {!Pn_util.Bitset}
      over the record space — numeric thresholds become intervals of
      the dataset's {!Pn_data.Sort_cache} sorted order when a training
      pass already built it (the bitset is filled by scattering only
      the covered records, no per-record comparison at all); on fresh
      serving data each numeric column gets a threshold ladder instead:
      its conditions' distinct thresholds, sorted, one binary search
      per record into them and a bucket sort of the records by the
      result, after which every condition on the column is again an
      interval of one record order;
    + first-match resolution per rule list ({!eval}) works
      word-at-a-time: AND the condition bitsets of each rule into the
      not-yet-resolved mask, commit the hits, clear them, and stop as
      soon as every record is resolved;
    + coverage per rule list ({!cover}) is the same condition phase
      followed by one OR of each rule's condition AND per output word,
      so it yields one bitset per list — [n/63] words — where {!eval}
      yields one [n]-entry int array per list. Callers that only ask
      "did any rule of this list match" (a boosted ensemble's vote,
      where every member is a one-rule list) use it.

    Evaluation fans across the domain pool in two phases — one job per
    condition bitset, then one job per word-aligned chunk of the
    outputs. Every job writes disjoint memory, so results are
    bit-identical at every pool size — and identical to the per-record
    reference path ([Rule_list.first_match]), which remains the oracle
    the property tests check against.

    The per-request arrays (ladders, and {!eval}'s outputs) are
    borrowed from [scratch] when one is given, so a serving worker
    reuses them from request to request; {!eval}'s result then aliases
    that scratch, and its arrays may be longer than the dataset: only
    their first [Dataset.n_records ds] cells are results. Without one,
    each call uses a fresh scratch and the arrays have exactly that
    length. *)

type t

(** [compile lists] deduplicates conditions across [lists] (each an
    ordered rule array, first match wins) and returns the compiled
    program. Compilation touches no data, so one program serves any
    number of datasets over the same schema. *)
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
    [Dataset.n_records ds]. Shares {!eval}'s condition phase, pool
    behaviour and exceptions. *)
val cover :
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  t ->
  Pn_data.Dataset.t ->
  Pn_util.Bitset.t array

(** [first_match_all ?pool rules ds] compiles and evaluates a single
    rule list: per-record first-match indices, [-1] for no match. *)
val first_match_all : ?pool:Pn_util.Pool.t -> Rule.t array -> Pn_data.Dataset.t -> int array
