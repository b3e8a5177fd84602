(* Compiled bitset engine: dedup conditions, evaluate each with one
   columnar sweep into a bitset, then resolve first-match or coverage
   word-at-a-time.
   See compiled.mli for the contract; the per-record reference path in
   Rule_list/Condition is the oracle this must match bit-for-bit. *)

module Bitset = Pn_util.Bitset
module Dataset = Pn_data.Dataset

type t = {
  conditions : Condition.t array;  (* deduplicated, in first-seen order *)
  lists : int array array array;  (* list -> rule -> condition ids *)
}

let compile lists =
  let tbl = Hashtbl.create 64 in
  let rev_conds = ref [] in
  let n_conds = ref 0 in
  let id_of c =
    match Hashtbl.find_opt tbl c with
    | Some id -> id
    | None ->
      let id = !n_conds in
      incr n_conds;
      rev_conds := c :: !rev_conds;
      Hashtbl.add tbl c id;
      id
  in
  let lists =
    Array.map
      (Array.map (fun r -> Array.of_list (List.map id_of r.Rule.conditions)))
      lists
  in
  { conditions = Array.of_list (List.rev !rev_conds); lists }

let n_lists t = Array.length t.lists

let n_distinct_conditions t = Array.length t.conditions

(* ------------------------------------------------------------------ *)
(* Per-dataset condition preparation                                    *)
(* ------------------------------------------------------------------ *)

(* A condition bound to the dataset's raw columns: a categorical test
   sweeps the code column; a numeric test is a half-open interval of
   some record order — the sort cache's when a training pass already
   built it, else the column's threshold ladder — so its bitset is
   filled by walking only the order positions inside the interval. *)
type prep =
  | P_cat of int array * int
  | P_interval of int array * int * int
      (* (order, lo, hi): the matching records are order.(lo..hi-1) *)

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

let num_column ds col =
  match ds.Dataset.columns.(col) with
  | Dataset.Num values -> values
  | Dataset.Cat _ ->
    invalid_arg "Compiled.eval: numeric condition on categorical column"

(* Translate a numeric test into a rank interval over the cached sorted
   order. Float.compare agrees with (<=)/(>=) on everything except
   nans, which it sorts first; the lower cut excludes them so the
   interval matches the reference semantics (a nan value satisfies no
   threshold, a nan threshold is satisfied by no value). *)
let rank_prep entry values cond =
  let order = entry.Pn_data.Sort_cache.order in
  let n = Array.length order in
  let count_le thr = lower_bound order values (fun v -> Float.compare v thr > 0) in
  let count_lt thr = lower_bound order values (fun v -> Float.compare v thr >= 0) in
  let n_nan = lower_bound order values (fun v -> not (Float.is_nan v)) in
  match cond with
  | Condition.Num_le { threshold; _ } ->
    if Float.is_nan threshold then P_interval (order, 0, 0)
    else P_interval (order, n_nan, count_le threshold)
  | Condition.Num_ge { threshold; _ } ->
    if Float.is_nan threshold then P_interval (order, 0, 0)
    else P_interval (order, count_lt threshold, n)
  | Condition.Num_range { lo; hi; _ } ->
    if Float.is_nan lo || Float.is_nan hi then P_interval (order, 0, 0)
    else P_interval (order, max n_nan (count_lt lo), count_le hi)
  | Condition.Cat_eq _ -> assert false

(* A numeric column's threshold ladder, for a dataset with no sort-cache
   entry on it (every serving request). [cuts] are the distinct non-nan
   thresholds of the column's conditions, ascending. Record [i] with
   value [v] gets rank [2 * #(cuts < v)], plus 1 when [v] equals a cut:
   rank [2j+1] is exactly [v = cuts.(j)], the even ranks are the open
   gaps around the cuts, and a nan value gets the last rank, [2k+1].
   [order] lists the records by rank, and [starts.(r)] is the first
   position of rank [r] in it ([starts.(2k+2) = n]). So:
   - [v <= c_j] iff [r <= 2j+1];
   - [v >= c_j] iff [2j+1 <= r <= 2k];
   - [c_a <= v <= c_b] iff [2a+1 <= r <= 2b+1];
   each an interval of [order], filled by the same scatter as a
   sort-cache interval. The cuts compare with (<), (=) and dedup under
   Float.compare, which agree with the reference's (<=)/(>=) on every
   non-nan float, ±0.0 and ±inf included. *)
type ladder = { cuts : float array; order : int array; starts : int array }

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

(* [#(cuts < v)] for a non-nan [v]. Inlined, so a caller's [v] is never
   boxed to make the call. *)
let[@inline] count_below (cuts : float array) (v : float) =
  let lo = ref 0 and hi = ref (Array.length cuts) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get cuts mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bucket-sort the [n] records by rank: one binary search per record,
   then a counting sort. [values], [rank] and [order] have at least [n]
   cells; [rank] and [order] are borrowed. *)
let build_ladder ~n (values : float array) (cuts : float array) ~rank ~order =
  let k = Array.length cuts in
  let n_ranks = (2 * k) + 2 in
  let starts = Array.make (n_ranks + 1) 0 in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get values i in
    let r =
      if Float.is_nan v then n_ranks - 1
      else
        let c = count_below cuts v in
        (2 * c) + Bool.to_int (c < k && Array.unsafe_get cuts c = v)
    in
    Array.unsafe_set rank i r;
    starts.(r + 1) <- starts.(r + 1) + 1
  done;
  for r = 1 to n_ranks do
    starts.(r) <- starts.(r) + starts.(r - 1)
  done;
  let next = Array.sub starts 0 n_ranks in
  for i = 0 to n - 1 do
    let r = Array.unsafe_get rank i in
    let p = Array.unsafe_get next r in
    Array.unsafe_set order p i;
    Array.unsafe_set next r (p + 1)
  done;
  { cuts; order; starts }

let ladder_prep l cond =
  let k = Array.length l.cuts in
  let at r = l.starts.(r) in
  (* The cut equal to a non-nan threshold: always present. *)
  let cut thr = count_below l.cuts thr in
  let nothing = P_interval (l.order, 0, 0) in
  match cond with
  | Condition.Num_le { threshold; _ } ->
    if Float.is_nan threshold then nothing
    else P_interval (l.order, 0, at ((2 * cut threshold) + 2))
  | Condition.Num_ge { threshold; _ } ->
    if Float.is_nan threshold then nothing
    else P_interval (l.order, at ((2 * cut threshold) + 1), at ((2 * k) + 1))
  | Condition.Num_range { lo; hi; _ } ->
    if Float.is_nan lo || Float.is_nan hi then nothing
    else
      let a = cut lo and b = cut hi in
      if a > b then nothing
      else P_interval (l.order, at ((2 * a) + 1), at ((2 * b) + 2))
  | Condition.Cat_eq _ -> assert false

let k_rank = Pn_util.Scratch.key ()
let k_order = Pn_util.Scratch.key ()

(* Bind every distinct condition to the dataset. Numeric conditions on
   columns the sort cache does not hold share one ladder per column,
   built once per call (one pool job per column) in arrays borrowed
   from [scratch]. *)
let prepare ~scratch ~pool ds conditions =
  let n = Dataset.n_records ds in
  let ladder_of = Hashtbl.create 8 in
  let ladder_cols = ref [] in
  let numeric cond col thresholds =
    let values = num_column ds col in
    match Dataset.sort_entry_opt ds ~col with
    | Some e -> `Ready (rank_prep e values cond)
    | None ->
      let li, acc =
        match Hashtbl.find_opt ladder_of col with
        | Some entry -> entry
        | None ->
          let entry = (Hashtbl.length ladder_of, ref []) in
          Hashtbl.add ladder_of col entry;
          ladder_cols := (col, snd entry) :: !ladder_cols;
          entry
      in
      acc := thresholds @ !acc;
      `Ladder li
  in
  let plans =
    Array.map
      (fun cond ->
        match cond with
        | Condition.Cat_eq { col; value } -> (
          match ds.Dataset.columns.(col) with
          | Dataset.Cat codes -> `Ready (P_cat (codes, value))
          | Dataset.Num _ ->
            invalid_arg "Compiled.eval: categorical condition on numeric column")
        | Condition.Num_le { col; threshold } | Condition.Num_ge { col; threshold } ->
          numeric cond col [ threshold ]
        | Condition.Num_range { col; lo; hi } -> numeric cond col [ lo; hi ])
      conditions
  in
  let ladder_cols = Array.of_list (List.rev !ladder_cols) in
  let n_ladders = Array.length ladder_cols in
  let ranks =
    Array.init n_ladders (fun li -> Pn_util.Scratch.ints scratch k_rank ~at:li n)
  in
  let orders =
    Array.init n_ladders (fun li -> Pn_util.Scratch.ints scratch k_order ~at:li n)
  in
  let ladders =
    Pn_util.Pool.map_array pool n_ladders (fun li ->
        let col, thresholds = ladder_cols.(li) in
        build_ladder ~n (num_column ds col) (cuts_of !thresholds) ~rank:ranks.(li)
          ~order:orders.(li))
  in
  Array.map2
    (fun cond plan ->
      match plan with `Ready p -> p | `Ladder li -> ladder_prep ladders.(li) cond)
    conditions plans

(* ------------------------------------------------------------------ *)
(* Columnar sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let bits = Bitset.bits_per_word

(* Resolution chunks span an exact number of words, so parallel chunks
   own disjoint word ranges of the output arrays. *)
let records_per_chunk = bits * 64

(* Exact [idx / 63] without a hardware divide: split off [idx lsr 6]
   (a 64-divide underestimates a 63-divide), then finish the small
   remainder with a round-up magic multiply. The multiply is
   overflow-free and exact for idx < 2^36 — verified by brute force to
   2^26 and sampling to 2^36 — far beyond any dataset this engine will
   see. Only used when [bits] = 63 (every 64-bit platform). *)
let div63 idx =
  let q0 = idx lsr 6 in
  let d = (idx land 63) + q0 in
  q0 + ((d * 2181570691) lsr 37)

(* Scatter the records at order positions [p_lo, p_hi) into the word
   array. Sequential reads of [order], single-bit ors into a bitset
   that is tiny (n/8 bytes) and therefore cache-resident. *)
let set_interval order w ~p_lo ~p_hi =
  if bits = 63 then
    for p = p_lo to p_hi - 1 do
      let idx = Array.unsafe_get order p in
      let q = div63 idx in
      Array.unsafe_set w q (Array.unsafe_get w q lor (1 lsl (idx - (q * 63))))
    done
  else
    for p = p_lo to p_hi - 1 do
      let idx = Array.unsafe_get order p in
      let q = idx / bits in
      Array.unsafe_set w q (Array.unsafe_get w q lor (1 lsl (idx mod bits)))
    done

(* Fill one condition's bitset over the whole dataset. The categorical
   sweep advances one output word (= [bits] records) at a time, the
   inner loop a direct array read + branchless compare-to-bit. The
   interval variant does no sweep at all: it scatters only the covered
   records — or, for wide intervals, the uncovered ones followed by a
   word-wise complement — so its cost is O(min(covered, n - covered)),
   not O(n). *)
let fill prep bs =
  let w = Bitset.words bs in
  let n = Bitset.length bs in
  match prep with
  | P_cat (codes, v) ->
    let wi = ref 0 and base = ref 0 in
    while !base < n do
      let b0 = !base in
      let m = min bits (n - b0) in
      let acc = ref 0 in
      for b = 0 to m - 1 do
        acc := !acc lor (Bool.to_int (Array.unsafe_get codes (b0 + b) = v) lsl b)
      done;
      Array.unsafe_set w !wi !acc;
      incr wi;
      base := b0 + m
    done
  | P_interval (order, cut_lo, cut_hi) ->
    let covered = cut_hi - cut_lo in
    if 2 * covered <= n then set_interval order w ~p_lo:cut_lo ~p_hi:cut_hi
    else begin
      (* Wide interval: scatter the complement, then flip. *)
      set_interval order w ~p_lo:0 ~p_hi:cut_lo;
      set_interval order w ~p_lo:cut_hi ~p_hi:n;
      let nw = Array.length w in
      for j = 0 to nw - 1 do
        Array.unsafe_set w j (lnot (Array.unsafe_get w j))
      done;
      let r = n mod bits in
      if r <> 0 && nw > 0 then w.(nw - 1) <- w.(nw - 1) land ((1 lsl r) - 1)
    end

(* ------------------------------------------------------------------ *)
(* Word-at-a-time first-match resolution                                *)
(* ------------------------------------------------------------------ *)

(* First-match resolution for one rule list over one chunk of records.
   [cond_words] are the full-length word arrays of the global condition
   bitsets; this chunk reads them at word offset [lo / bits] and writes
   only its own slice of [out]. [out] is prefilled with -1; only hits
   are written, each record at most once (its bit leaves [unresolved]
   the moment a rule claims it). *)
let resolve rules cond_words out ~lo ~len =
  let unresolved = Bitset.full len in
  let hit = Bitset.create len in
  let nw = Bitset.words_for len in
  let w0 = lo / bits in
  let uw = Bitset.words unresolved and hw = Bitset.words hit in
  let n_rules = Array.length rules in
  let k = ref 0 and live = ref (len > 0) in
  while !live && !k < n_rules do
    let conds = rules.(!k) in
    Array.blit uw 0 hw 0 nw;
    for ci = 0 to Array.length conds - 1 do
      let cw = Array.unsafe_get cond_words (Array.unsafe_get conds ci) in
      for j = 0 to nw - 1 do
        Array.unsafe_set hw j
          (Array.unsafe_get hw j land Array.unsafe_get cw (w0 + j))
      done
    done;
    let rule_idx = !k in
    let any_left = ref false in
    for wi = 0 to nw - 1 do
      let h = Array.unsafe_get hw wi in
      if h <> 0 then begin
        let word = ref h and idx = ref (lo + (wi * bits)) in
        while !word <> 0 do
          if !word land 1 <> 0 then Array.unsafe_set out !idx rule_idx;
          word := !word lsr 1;
          incr idx
        done;
        Array.unsafe_set uw wi (Array.unsafe_get uw wi land lnot h)
      end;
      if Array.unsafe_get uw wi <> 0 then any_left := true
    done;
    live := !any_left;
    incr k
  done

(* Coverage of one rule list over one chunk of records: bit [i] of
   [out] is set when any rule matches record [i]. Word-major — each
   output word ORs its rules' condition ANDs and is written once — so
   no scratch bitset is needed; a word stops early once every record
   in it is covered. An empty rule ANDs nothing, so it starts from the
   chunk's valid-bit mask, which keeps the tail bits of the last word
   zero. *)
let union rules cond_words out ~lo ~len =
  let nw = Bitset.words_for len in
  let w0 = lo / bits in
  let tail = len mod bits in
  let n_rules = Array.length rules in
  for j = 0 to nw - 1 do
    let valid = if j = nw - 1 && tail <> 0 then (1 lsl tail) - 1 else -1 in
    let acc = ref 0 and k = ref 0 in
    while !acc <> valid && !k < n_rules do
      let conds = Array.unsafe_get rules !k in
      let h = ref valid in
      for ci = 0 to Array.length conds - 1 do
        let cw = Array.unsafe_get cond_words (Array.unsafe_get conds ci) in
        h := !h land Array.unsafe_get cw (w0 + j)
      done;
      acc := !acc lor !h;
      incr k
    done;
    Array.unsafe_set out (w0 + j) !acc
  done

(* The two phases [eval] and [cover] share. Phase 1: one bitset per
   distinct condition, each job owning its own bitset. Phase 2: [per_chunk]
   once per word-aligned chunk of records, each job owning that slice of
   the outputs. Both phases write disjoint memory, so the result is
   identical at any pool size. Nothing runs on an empty dataset or an
   empty program. *)
let sweep ?pool ~scratch t ds per_chunk =
  let n = Dataset.n_records ds in
  if n > 0 && Array.length t.lists > 0 then begin
    let pool =
      match pool with Some p -> p | None -> Pn_util.Pool.get_default ()
    in
    let preps = prepare ~scratch ~pool ds t.conditions in
    let n_conds = Array.length preps in
    let cond_sets = Array.map (fun _ -> Bitset.create n) preps in
    if n_conds > 0 then
      ignore
        (Pn_util.Pool.map_array pool n_conds (fun ci ->
             fill preps.(ci) cond_sets.(ci)));
    let cond_words = Array.map Bitset.words cond_sets in
    let n_chunks = ((n - 1) / records_per_chunk) + 1 in
    ignore
      (Pn_util.Pool.map_array pool n_chunks (fun chunk ->
           let lo = chunk * records_per_chunk in
           per_chunk cond_words ~lo ~len:(min records_per_chunk (n - lo))))
  end

let k_first = Pn_util.Scratch.key ()

let eval ?pool ?(scratch = Pn_util.Scratch.create ()) t ds =
  let n = Dataset.n_records ds in
  let out =
    Array.mapi
      (fun l _ ->
        let a = Pn_util.Scratch.ints scratch k_first ~at:l n in
        Array.fill a 0 n (-1);
        a)
      t.lists
  in
  sweep ?pool ~scratch t ds (fun cond_words ~lo ~len ->
      Array.iteri
        (fun l rules -> resolve rules cond_words out.(l) ~lo ~len)
        t.lists);
  out

let cover ?pool ?(scratch = Pn_util.Scratch.create ()) t ds =
  let n = Dataset.n_records ds in
  let out = Array.map (fun _ -> Bitset.create n) t.lists in
  sweep ?pool ~scratch t ds (fun cond_words ~lo ~len ->
      Array.iteri
        (fun l rules -> union rules cond_words (Bitset.words out.(l)) ~lo ~len)
        t.lists);
  out

let first_match_all ?pool rules ds = (eval ?pool (compile [| rules |]) ds).(0)
