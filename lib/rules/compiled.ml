(* Compiled rule-box engine: every rule becomes one key interval per
   column it tests, compiled once per program; a request computes each
   tested column's keys and key counts, then walks each rule from the
   column whose interval holds the fewest records.
   See compiled.mli for the contract; the per-record reference path in
   Rule_list/Condition is the oracle this must match bit-for-bit. *)

module Bitset = Pn_util.Bitset
module Dataset = Pn_data.Dataset
module Scratch = Pn_util.Scratch

(* ------------------------------------------------------------------ *)
(* The program                                                          *)
(* ------------------------------------------------------------------ *)

(* A column some condition tests. A numeric column's key is its
   threshold-ladder rank. [cuts] are the distinct non-nan thresholds of
   the column's conditions, ascending; a value [v] gets rank
   [2 * #(cuts < v)], plus 1 when [v] equals a cut, so rank [2j+1] is
   exactly [v = cuts.(j)], the even ranks are the open gaps around the
   cuts, and a nan value gets the last rank, [2k+1]. Then:
   - [v <= c_j] iff [r <= 2j+1];
   - [v >= c_j] iff [2j+1 <= r <= 2k];
   - [c_a <= v <= c_b] iff [2a+1 <= r <= 2b+1].
   The cuts compare with (<), (=) and dedup under Float.compare, which
   agree with the reference's (<=)/(>=) on every non-nan float, ±0.0
   and ±inf included.
   The bucket table turns the rank search into a lookup: [n_buckets]
   equal-width buckets over [c_0, c_{k-1}], the bucket of [v] being
   [clamp (floor ((v - base) * scale))], and [first.(b)] the number of
   cuts in buckets below [b]. The bucket function is monotone in [v],
   so every cut in a lower bucket is [< v] and every cut in a higher
   one is [> v]: [#(cuts < v)] is [first.(b)] plus a binary search
   over bucket [b]'s own cuts, usually none or one. A span of 0 or one
   that is not finite gets a single bucket, which is the plain binary
   search. A categorical column's key is the code itself. *)
type column = {
  col : int;
  cat : bool;  (* some condition on it is a [Cat_eq] *)
  num : bool;  (* some condition on it is numeric *)
  cuts : float array;
  base : float;
  scale : float;
  n_buckets : int;
  first : int array;  (* [n_buckets + 1] cells, [first.(n_buckets) = k] *)
}

(* A rule as a box: an inclusive key interval on each column it tests,
   columns in ascending program order. [empty] when some interval is
   empty (an inverted range, two codes, a nan threshold): the rule
   matches nothing. A rule with no columns and not [empty] matches
   every record. [slot] numbers its first interval among all the
   program's, [id] the rule among all the program's rules. *)
type rule = {
  cols : int array;
  klo : int array;
  khi : int array;
  empty : bool;
  slot : int;
  id : int;
}

type t = {
  conditions : Condition.t array;  (* deduplicated, in first-seen order *)
  columns : column array;
  lists : rule array array;
  n_slots : int;
  n_rules : int;
}

let n_lists t = Array.length t.lists

let n_distinct_conditions t = Array.length t.conditions

let bucket_count = 1024

(* [#(cuts.(lo..hi-1) < v)] plus [lo], for a non-nan [v]. *)
let[@inline] search (cuts : float array) (v : float) lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get cuts mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bucket of a non-nan [v]. With one bucket every value lands in it,
   whatever [scale] makes of it (nan included). *)
let[@inline] bucket ~base ~scale ~n_buckets (v : float) =
  let x = (v -. base) *. scale in
  if not (x >= 1.0) then 0
  else if x >= Float.of_int n_buckets then n_buckets - 1
  else int_of_float x

let cuts_of thresholds =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) thresholds) in
  Array.sort Float.compare a;
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || Float.compare x a.(!k - 1) <> 0 then begin
        a.(!k) <- x;
        incr k
      end)
    a;
  Array.sub a 0 !k

let make_column ~col ~cat ~num thresholds =
  let cuts = cuts_of thresholds in
  let k = Array.length cuts in
  let span = if k = 0 then 0.0 else cuts.(k - 1) -. cuts.(0) in
  let scale = Float.of_int bucket_count /. span in
  let n_buckets =
    if span > 0.0 && Float.is_finite span && Float.is_finite scale then bucket_count
    else 1
  in
  let base = if k = 0 then 0.0 else cuts.(0) in
  let first = Array.make (n_buckets + 1) k in
  let j = ref 0 in
  for b = 0 to n_buckets do
    while !j < k && bucket ~base ~scale ~n_buckets cuts.(!j) < b do
      incr j
    done;
    first.(b) <- !j
  done;
  { col; cat; num; cuts; base; scale; n_buckets; first }

(* A value's ladder rank on a numeric column. *)
let[@inline] rank c (v : float) =
  let k = Array.length c.cuts in
  if Float.is_nan v then (2 * k) + 1
  else
    let b = bucket ~base:c.base ~scale:c.scale ~n_buckets:c.n_buckets v in
    let j =
      search c.cuts v (Array.unsafe_get c.first b) (Array.unsafe_get c.first (b + 1))
    in
    (2 * j) + Bool.to_int (j < k && Array.unsafe_get c.cuts j = v)

(* A condition's key interval on its column, [(1, 0)] when empty. *)
let interval c cond =
  let k = Array.length c.cuts in
  (* The cut equal to a non-nan threshold: always present. *)
  let cut thr = search c.cuts thr 0 k in
  let nothing = (1, 0) in
  match cond with
  | Condition.Cat_eq { value; _ } -> (value, value)
  | Condition.Num_le { threshold; _ } ->
    if Float.is_nan threshold then nothing else (0, (2 * cut threshold) + 1)
  | Condition.Num_ge { threshold; _ } ->
    if Float.is_nan threshold then nothing else ((2 * cut threshold) + 1, 2 * k)
  | Condition.Num_range { lo; hi; _ } ->
    if Float.is_nan lo || Float.is_nan hi then nothing
    else ((2 * cut lo) + 1, (2 * cut hi) + 1)

let thresholds = function
  | Condition.Cat_eq _ -> []
  | Condition.Num_le { threshold; _ } | Condition.Num_ge { threshold; _ } -> [ threshold ]
  | Condition.Num_range { lo; hi; _ } -> [ lo; hi ]

let compile lists =
  let seen = Hashtbl.create 64 in
  let rev_conds = ref [] in
  Array.iter
    (Array.iter (fun r ->
         List.iter
           (fun c ->
             if not (Hashtbl.mem seen c) then begin
               Hashtbl.add seen c ();
               rev_conds := c :: !rev_conds
             end)
           r.Rule.conditions))
    lists;
  let conditions = Array.of_list (List.rev !rev_conds) in
  (* One program column per tested column, ascending. *)
  let on_col = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      let col = Condition.col c in
      Hashtbl.replace on_col col
        (c :: Option.value ~default:[] (Hashtbl.find_opt on_col col)))
    conditions;
  let cols = List.sort compare (Hashtbl.fold (fun col _ acc -> col :: acc) on_col []) in
  let columns =
    Array.of_list
      (List.map
         (fun col ->
           let conds = Hashtbl.find on_col col in
           let is_cat = function Condition.Cat_eq _ -> true | _ -> false in
           make_column ~col ~cat:(List.exists is_cat conds)
             ~num:(List.exists (fun c -> not (is_cat c)) conds)
             (List.concat_map thresholds conds))
         cols)
  in
  let index = Hashtbl.create 8 in
  List.iteri (fun ci col -> Hashtbl.add index col ci) cols;
  let n_slots = ref 0 and n_rules = ref 0 in
  let box r =
    let ivs =
      List.fold_left
        (fun acc cond ->
          let ci = Hashtbl.find index (Condition.col cond) in
          let a, b = interval columns.(ci) cond in
          match List.assoc_opt ci acc with
          | Some (a0, b0) -> (ci, (max a a0, min b b0)) :: List.remove_assoc ci acc
          | None -> (ci, (a, b)) :: acc)
        [] r.Rule.conditions
    in
    let empty = List.exists (fun (_, (a, b)) -> a > b) ivs in
    let ivs = if empty then [] else List.sort compare ivs in
    let id = !n_rules and slot = !n_slots in
    incr n_rules;
    n_slots := !n_slots + List.length ivs;
    {
      cols = Array.of_list (List.map fst ivs);
      klo = Array.of_list (List.map (fun (_, (a, _)) -> a) ivs);
      khi = Array.of_list (List.map (fun (_, (_, b)) -> b) ivs);
      empty;
      slot;
      id;
    }
  in
  let lists = Array.map (Array.map box) lists in
  { conditions; columns; lists; n_slots = !n_slots; n_rules = !n_rules }

let column t col =
  match Array.find_opt (fun c -> c.col = col) t.columns with
  | Some c -> c
  | None -> invalid_arg "Compiled: no condition of the program tests this column"

let cuts t ~col = Array.copy (column t col).cuts

let ladder_rank t ~col v = rank (column t col) v

(* ------------------------------------------------------------------ *)
(* Per-request keys                                                     *)
(* ------------------------------------------------------------------ *)

(* How a request reads a column: fresh numeric data ranks every record
   through the bucket table; a numeric column a training pass already
   sort-cached keys each record by its position in the cached order,
   its ladder ranks becoming runs of that order by bound searches; a
   categorical column keys each record by its code. In each case
   [starts.(r)] is the first position of key-or-rank [r] in the
   column's record order, so an interval's record count is a
   difference of two cells. *)
type source =
  | Fresh of float array
  | Cached of Pn_data.Sort_cache.entry * float array
  | Codes of int array

(* First position p in the sorted order whose value satisfies [pred];
   [pred] must be monotone (false then true) along the order, which
   Float.compare-based predicates are, nans included. *)
let lower_bound order values pred =
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if pred values.(Array.unsafe_get order mid) then hi := mid else lo := mid + 1
  done;
  !lo

let prefix_sums starts len =
  for r = 1 to len - 1 do
    starts.(r) <- starts.(r) + starts.(r - 1)
  done

(* Ranks and their counts for the first [n] records of a fresh numeric
   column; [starts] has [2k + 3] zeroed cells and ends as prefix sums. *)
let rank_fresh c ~n (values : float array) ~keys ~starts =
  for i = 0 to n - 1 do
    let r = rank c (Array.unsafe_get values i) in
    Array.unsafe_set keys i r;
    Array.unsafe_set starts (r + 1) (Array.unsafe_get starts (r + 1) + 1)
  done;
  prefix_sums starts ((2 * Array.length c.cuts) + 3)

(* The ladder over a sort-cached column: Float.compare sorts nans
   first, so ranks [0 .. 2k] are runs of the order after them and the
   nan rank, which no interval holds, has no run. [starts] has
   [2k + 2] cells. *)
let rank_cached c (e : Pn_data.Sort_cache.entry) values ~starts =
  let order = e.Pn_data.Sort_cache.order in
  let k = Array.length c.cuts in
  starts.(0) <- lower_bound order values (fun v -> not (Float.is_nan v));
  Array.iteri
    (fun j thr ->
      starts.((2 * j) + 1) <- lower_bound order values (fun v -> Float.compare v thr >= 0);
      starts.((2 * j) + 2) <- lower_bound order values (fun v -> Float.compare v thr > 0))
    c.cuts;
  starts.((2 * k) + 1) <- Array.length order

(* Code counts for the first [n] records of a categorical column of
   [arity] codes; [starts] has [arity + 1] zeroed cells. *)
let count_codes ~n ~arity (codes : int array) ~starts =
  for i = 0 to n - 1 do
    let r = Array.unsafe_get codes i in
    Array.unsafe_set starts (r + 1) (Array.unsafe_get starts (r + 1) + 1)
  done;
  prefix_sums starts (arity + 1)

(* Counting sort of the first [n] records by key, consuming [starts]:
   each key's records land in its run in index order. *)
let order_by_key ~n (keys : int array) ~starts ~order =
  for i = 0 to n - 1 do
    let r = Array.unsafe_get keys i in
    let p = Array.unsafe_get starts r in
    Array.unsafe_set order p i;
    Array.unsafe_set starts r (p + 1)
  done

let k_keys = Scratch.key ()
let k_starts = Scratch.key ()
let k_order = Scratch.key ()
let k_bounds = Scratch.key ()
let k_driver = Scratch.key ()

(* What the walks read: per program column its record keys and record
   order; per slot four cells of [bounds], the positions [p0, p1) of
   its interval in its column's order and the key bounds [lo, hi] a
   record must fall in; per rule the slot it is walked from, or -1. *)
type request = {
  keys : int array array;
  orders : int array array;
  bounds : int array;
  driver : int array;
}

let kind_error what = invalid_arg ("Compiled.eval: " ^ what)

(* The three phases before the walks: keys and counts (one pool job per
   column), the driving slot of every rule (sequential, O(slots)), and
   the record orders of the driving columns (one pool job each). Every
   job writes only its own arrays. *)
let prepare ~pool ~scratch t ds =
  let n = Dataset.n_records ds in
  let columns = t.columns in
  let n_cols = Array.length columns in
  let sources =
    Array.map
      (fun c ->
        match ds.Dataset.columns.(c.col) with
        | Dataset.Num values ->
          if c.cat then kind_error "categorical condition on numeric column";
          (match Dataset.sort_entry_opt ds ~col:c.col with
          | Some e -> Cached (e, values)
          | None -> Fresh values)
        | Dataset.Cat codes ->
          if c.num then kind_error "numeric condition on categorical column";
          Codes codes)
      columns
  in
  let keys =
    Array.mapi
      (fun ci src ->
        match src with
        | Fresh _ -> Scratch.ints scratch k_keys ~at:ci n
        | Cached (e, _) -> e.Pn_data.Sort_cache.rank
        | Codes codes -> codes)
      sources
  in
  let arity ci = Pn_data.Attribute.arity ds.Dataset.attrs.(columns.(ci).col) in
  let starts =
    Array.mapi
      (fun ci src ->
        let len =
          match src with
          | Fresh _ -> (2 * Array.length columns.(ci).cuts) + 3
          | Cached _ -> (2 * Array.length columns.(ci).cuts) + 2
          | Codes _ -> arity ci + 1
        in
        let a = Scratch.ints scratch k_starts ~at:ci len in
        Array.fill a 0 len 0;
        a)
      sources
  in
  ignore
    (Pn_util.Pool.map_array pool n_cols (fun ci ->
         let starts = starts.(ci) in
         match sources.(ci) with
         | Fresh values -> rank_fresh columns.(ci) ~n values ~keys:keys.(ci) ~starts
         | Cached (e, values) -> rank_cached columns.(ci) e values ~starts
         | Codes codes -> count_codes ~n ~arity:(arity ci) codes ~starts));
  let bounds = Scratch.ints scratch k_bounds (4 * t.n_slots) in
  let driver = Scratch.ints scratch k_driver t.n_rules in
  let set s ~p0 ~p1 ~lo ~hi =
    bounds.(4 * s) <- p0;
    bounds.((4 * s) + 1) <- p1;
    bounds.((4 * s) + 2) <- lo;
    bounds.((4 * s) + 3) <- hi
  in
  let drives = Array.make n_cols false in
  Array.iter
    (Array.iter (fun r ->
         let best = ref (-1) and best_count = ref max_int in
         for j = 0 to Array.length r.cols - 1 do
           let s = r.slot + j and ci = r.cols.(j) in
           let a = r.klo.(j) and b = r.khi.(j) and st = starts.(ci) in
           (match sources.(ci) with
           | Codes _ when a < 0 || a >= arity ci -> set s ~p0:0 ~p1:0 ~lo:1 ~hi:0
           | Fresh _ | Codes _ -> set s ~p0:st.(a) ~p1:st.(b + 1) ~lo:a ~hi:b
           | Cached _ -> set s ~p0:st.(a) ~p1:st.(b + 1) ~lo:st.(a) ~hi:(st.(b + 1) - 1));
           let count = bounds.((4 * s) + 1) - bounds.(4 * s) in
           if count < !best_count then begin
             best := s;
             best_count := count
           end
         done;
         driver.(r.id) <- !best;
         if !best >= 0 && !best_count > 0 then drives.(r.cols.(!best - r.slot)) <- true))
    t.lists;
  let to_sort = ref [] in
  let orders =
    Array.mapi
      (fun ci src ->
        match src with
        | Cached (e, _) -> e.Pn_data.Sort_cache.order
        | (Fresh _ | Codes _) when drives.(ci) ->
          to_sort := ci :: !to_sort;
          Scratch.ints scratch k_order ~at:ci n
        | Fresh _ | Codes _ -> [||])
      sources
  in
  let to_sort = Array.of_list !to_sort in
  ignore
    (Pn_util.Pool.map_array pool (Array.length to_sort) (fun j ->
         let ci = to_sort.(j) in
         order_by_key ~n keys.(ci) ~starts:starts.(ci) ~order:orders.(ci)));
  { keys; orders; bounds; driver }

(* ------------------------------------------------------------------ *)
(* Rule walks                                                           *)
(* ------------------------------------------------------------------ *)

(* Whether record [i] falls in every interval of rule [r] other than
   its driving slot [d]. *)
let[@inline] inside req r d i =
  let ok = ref true and j = ref 0 in
  let m = Array.length r.cols in
  while !ok && !j < m do
    let s = r.slot + !j in
    if s <> d then begin
      let key = Array.unsafe_get (Array.unsafe_get req.keys (Array.unsafe_get r.cols !j)) i in
      ok :=
        key >= Array.unsafe_get req.bounds ((4 * s) + 2)
        && key <= Array.unsafe_get req.bounds ((4 * s) + 3)
    end;
    incr j
  done;
  !ok

(* Apply [hit] to every record rule [r] matches, driver first; [all]
   runs instead when the rule has no conditions. *)
let[@inline] walk req r ~hit ~all =
  if not r.empty then begin
    let d = Array.unsafe_get req.driver r.id in
    if d < 0 then all ()
    else begin
      let order = req.orders.(r.cols.(d - r.slot)) in
      for p = req.bounds.(4 * d) to req.bounds.((4 * d) + 1) - 1 do
        let i = Array.unsafe_get order p in
        if inside req r d i then hit i
      done
    end
  end

(* The per-list walks, one pool job per list, each writing only its
   list's output. Nothing runs on an empty dataset or program. *)
let run ?pool ~scratch t ds per_list =
  let n = Dataset.n_records ds in
  if n > 0 && Array.length t.lists > 0 then begin
    let pool = match pool with Some p -> p | None -> Pn_util.Pool.get_default () in
    let req = prepare ~pool ~scratch t ds in
    ignore (Pn_util.Pool.map_array pool (Array.length t.lists) (per_list req))
  end

let k_first = Scratch.key ()

(* Rules in list order, each writing its index where no earlier rule
   did; the walk stops once every record is resolved. *)
let eval ?pool ?(scratch = Scratch.create ()) t ds =
  let n = Dataset.n_records ds in
  let out =
    Array.mapi
      (fun l _ ->
        let a = Scratch.ints scratch k_first ~at:l n in
        Array.fill a 0 n (-1);
        a)
      t.lists
  in
  run ?pool ~scratch t ds (fun req l ->
      let out = out.(l) and rules = t.lists.(l) in
      let left = ref n and k = ref 0 in
      let claim i =
        if Array.unsafe_get out i < 0 then begin
          Array.unsafe_set out i !k;
          decr left
        end
      in
      let all () =
        for i = 0 to n - 1 do
          claim i
        done
      in
      while !left > 0 && !k < Array.length rules do
        walk req rules.(!k) ~hit:claim ~all;
        incr k
      done);
  out

let cover ?pool ?(scratch = Scratch.create ()) t ds =
  let n = Dataset.n_records ds in
  let out = Array.map (fun _ -> Bitset.create n) t.lists in
  run ?pool ~scratch t ds (fun req l ->
      let bs = out.(l) and rules = t.lists.(l) in
      let full = ref false and k = ref 0 in
      let hit i = Bitset.set bs i in
      let all () =
        Bitset.fill_ones bs;
        full := true
      in
      while (not !full) && !k < Array.length rules do
        walk req rules.(!k) ~hit ~all;
        incr k
      done);
  out

let first_match_all ?pool rules ds = (eval ?pool (compile [| rules |]) ds).(0)
