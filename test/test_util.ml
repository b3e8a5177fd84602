(* Tests for pn_util: PRNG, special functions, array helpers. *)

module Rng = Pn_util.Rng
module Stats = Pn_util.Stats
module Arr = Pn_util.Arr
module Pool = Pn_util.Pool

let check_float = Alcotest.(check (float 1e-9))

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_diverges () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_coverage () =
  let rng = Rng.create 5 in
  let seen = Array.make 7 0 in
  for _ = 1 to 7_000 do
    seen.(Rng.int rng 7) <- seen.(Rng.int rng 7) + 1
  done;
  Array.iteri (fun i c -> if c = 0 then Alcotest.failf "value %d never drawn" i) seen

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_float_mean () =
  let rng = Rng.create 6 in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  check_close 0.01 "uniform mean" 0.5 (!sum /. float_of_int n)

let test_rng_bernoulli () =
  let rng = Rng.create 8 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.1 then incr hits
  done;
  check_close 0.01 "bernoulli(0.1)" 0.1 (float_of_int !hits /. float_of_int n)

let test_rng_gaussian_moments () =
  let rng = Rng.create 9 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  check_close 0.02 "mean" 0.0 (Stats.mean xs);
  check_close 0.02 "stddev" 1.0 (Stats.stddev xs)

let test_rng_triangular_range () =
  let rng = Rng.create 10 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.triangular rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "triangular out of range: %f" v;
    sum := !sum +. v
  done;
  check_close 0.01 "triangular mean" 0.5 (!sum /. float_of_int n)

let test_rng_shuffle_multiset () =
  let rng = Rng.create 11 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_choose () =
  let rng = Rng.create 12 in
  for _ = 1 to 100 do
    let v = Rng.choose rng [| 5; 6; 7 |] in
    if v < 5 || v > 7 then Alcotest.failf "choose out of set: %d" v
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

let test_sample_without_replacement () =
  let rng = Rng.create 13 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng ~n:30 ~k:10 in
    Alcotest.(check int) "size" 10 (Array.length s);
    for i = 0 to 8 do
      if s.(i) >= s.(i + 1) then Alcotest.fail "not strictly increasing (duplicate?)"
    done;
    Array.iter (fun v -> if v < 0 || v >= 30 then Alcotest.failf "range: %d" v) s
  done;
  let all = Rng.sample_without_replacement rng ~n:5 ~k:5 in
  Alcotest.(check (array int)) "k=n" [| 0; 1; 2; 3; 4 |] all

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_log_gamma_known () =
  check_close 1e-9 "lgamma(1)" 0.0 (Stats.log_gamma 1.0);
  check_close 1e-9 "lgamma(2)" 0.0 (Stats.log_gamma 2.0);
  check_close 1e-8 "lgamma(5)=ln 24" (log 24.0) (Stats.log_gamma 5.0);
  check_close 1e-8 "lgamma(0.5)=ln sqrt(pi)"
    (0.5 *. log Float.pi)
    (Stats.log_gamma 0.5)

let test_log_comb () =
  check_close 1e-9 "C(n,0)" 0.0 (Stats.log_comb 10.0 0.0);
  check_close 1e-9 "C(n,n)" 0.0 (Stats.log_comb 10.0 10.0);
  check_close 1e-7 "C(10,3)=120" (Stats.log2 120.0) (Stats.log_comb 10.0 3.0);
  check_close 1e-7 "symmetry" (Stats.log_comb 20.0 6.0) (Stats.log_comb 20.0 14.0)

let test_entropy () =
  check_float "uniform 2" 1.0 (Stats.entropy [| 1.0; 1.0 |]);
  check_float "uniform 4" 2.0 (Stats.entropy [| 3.0; 3.0; 3.0; 3.0 |]);
  check_float "pure" 0.0 (Stats.entropy [| 5.0; 0.0 |]);
  check_float "empty" 0.0 (Stats.entropy [||]);
  check_close 1e-9 "skip zeros" (Stats.entropy [| 1.0; 1.0 |])
    (Stats.entropy [| 1.0; 0.0; 1.0 |])

let test_binomial_upper_basic () =
  (* e = 0 closed form: 1 - cf^(1/n). *)
  check_close 1e-9 "e=0" (1.0 -. (0.25 ** 0.1)) (Stats.binomial_upper ~cf:0.25 ~n:10.0 ~e:0.0);
  let u = Stats.binomial_upper ~cf:0.25 ~n:100.0 ~e:10.0 in
  if u <= 0.1 || u >= 1.0 then Alcotest.failf "upper limit should exceed e/n: %f" u;
  check_float "n=0" 1.0 (Stats.binomial_upper ~cf:0.25 ~n:0.0 ~e:0.0);
  check_float "e>=n" 1.0 (Stats.binomial_upper ~cf:0.25 ~n:5.0 ~e:5.0)

let test_binomial_upper_monotone () =
  let prev = ref 0.0 in
  List.iter
    (fun e ->
      let u = Stats.binomial_upper ~cf:0.25 ~n:50.0 ~e in
      if u < !prev then Alcotest.failf "not monotone in e at %f" e;
      prev := u)
    [ 0.0; 1.0; 2.0; 5.0; 10.0; 25.0 ];
  (* More cases with the same error rate → tighter (smaller) limit. *)
  let u_small = Stats.binomial_upper ~cf:0.25 ~n:10.0 ~e:1.0 in
  let u_large = Stats.binomial_upper ~cf:0.25 ~n:100.0 ~e:10.0 in
  if u_large >= u_small then Alcotest.fail "limit should tighten with n"

let test_binomial_upper_quinlan () =
  (* Quinlan's book example: U_0.25(0, 6) ≈ 0.206. *)
  check_close 5e-3 "U25(0,6)" 0.206 (Stats.binomial_upper ~cf:0.25 ~n:6.0 ~e:0.0)

let test_normal_cdf () =
  check_close 1e-6 "phi(0)" 0.5 (Stats.normal_cdf 0.0);
  check_close 1e-4 "phi(1.96)" 0.975 (Stats.normal_cdf 1.96);
  check_close 1e-4 "phi(-1.96)" 0.025 (Stats.normal_cdf (-1.96));
  check_close 1e-6 "symmetry" 1.0 (Stats.normal_cdf 1.3 +. Stats.normal_cdf (-1.3))

let test_normal_quantile () =
  check_close 1e-6 "q(0.5)" 0.0 (Stats.normal_quantile 0.5);
  List.iter
    (fun p -> check_close 1e-6 "roundtrip" p (Stats.normal_cdf (Stats.normal_quantile p)))
    [ 0.001; 0.01; 0.2; 0.5; 0.8; 0.99; 0.999 ]

let test_two_proportion_z () =
  check_float "equal" 0.0 (Stats.two_proportion_z ~p1:0.3 ~n1:100.0 ~p2:0.3 ~n2:50.0);
  let z = Stats.two_proportion_z ~p1:0.6 ~n1:100.0 ~p2:0.4 ~n2:100.0 in
  if z <= 0.0 then Alcotest.fail "sign";
  check_close 1e-9 "antisymmetric" (-.z)
    (Stats.two_proportion_z ~p1:0.4 ~n1:100.0 ~p2:0.6 ~n2:100.0);
  check_float "degenerate n" 0.0 (Stats.two_proportion_z ~p1:0.3 ~n1:0.0 ~p2:0.5 ~n2:10.0)

let test_mean_stddev () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "empty mean" 0.0 (Stats.mean [||]);
  check_close 1e-9 "stddev" (sqrt (2.0 /. 3.0)) (Stats.stddev [| 1.0; 2.0; 3.0 |])

(* ------------------------------------------------------------------ *)
(* Arr                                                                  *)
(* ------------------------------------------------------------------ *)

let test_argsort () =
  let a = [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (array int)) "order" [| 1; 2; 0 |] (Arr.argsort_floats a);
  Alcotest.(check (array int)) "stability" [| 0; 1; 2 |]
    (Arr.argsort_floats [| 1.0; 1.0; 1.0 |])

let test_max_by () =
  Alcotest.(check int) "max" 3 (Arr.max_by float_of_int [| 1; 3; 2 |]);
  Alcotest.(check int) "first on tie" 3 (Arr.max_by (fun x -> float_of_int (x mod 2)) [| 3; 5; 2 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Arr.max_by: empty array") (fun () ->
      ignore (Arr.max_by float_of_int [||]))

let test_take_range_filteri () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Arr.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Arr.take 5 [ 1 ]);
  Alcotest.(check (list int)) "take zero" [] (Arr.take 0 [ 1 ]);
  Alcotest.(check (array int)) "range" [| 0; 1; 2 |] (Arr.range 3);
  Alcotest.(check (array int)) "filteri" [| 10; 30 |]
    (Arr.filteri (fun i _ -> i mod 2 = 0) [| 10; 20; 30 |])

let test_sums () =
  check_float "sum" 6.0 (Arr.sum_floats [| 1.0; 2.0; 3.0 |]);
  check_float "mean_of" 2.0 (Arr.mean_of float_of_int [| 1; 2; 3 |]);
  check_float "mean_of empty" 0.0 (Arr.mean_of float_of_int [||])

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_sequential () =
  Alcotest.(check int) "size" 1 (Pool.size Pool.sequential);
  Alcotest.(check int) "create 1 is sequential" 1 (Pool.size (Pool.create ~domains:1));
  Alcotest.(check int) "create 0 clamps" 1 (Pool.size (Pool.create ~domains:0));
  Alcotest.(check (array int)) "map"
    [| 0; 2; 4 |]
    (Pool.map_array Pool.sequential 3 (fun i -> 2 * i));
  Alcotest.(check (array int)) "empty" [||] (Pool.map_array Pool.sequential 0 (fun i -> i))

let test_pool_map_matches_init () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 4 (Pool.size pool);
      for n = 0 to 40 do
        let expected = Array.init n (fun i -> (i * i) - (3 * i)) in
        let got = Pool.map_array pool n (fun i -> (i * i) - (3 * i)) in
        Alcotest.(check (array int)) (Printf.sprintf "n=%d" n) expected got
      done;
      (* A bigger job than the pool, repeatedly, to exercise re-dispatch. *)
      for _ = 1 to 20 do
        let got = Pool.map_array pool 500 (fun i -> i + 1) in
        Alcotest.(check (array int)) "large" (Array.init 500 (fun i -> i + 1)) got
      done)

let test_pool_exception () =
  let pool = Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (try
         ignore
           (Pool.map_array pool 8 (fun i ->
                if i = 5 then failwith "boom" else i));
         Alcotest.fail "expected exception"
       with Failure msg -> Alcotest.(check string) "propagated" "boom" msg);
      (* The pool survives a failed job. *)
      Alcotest.(check (array int)) "still works"
        [| 0; 1; 2; 3 |]
        (Pool.map_array pool 4 (fun i -> i)))

(* The PNRULE_DOMAINS parsing contract: positive integers (whitespace
   tolerated, capped at 64) are accepted; anything else is a descriptive
   error so [get_default] can warn and fall back to sequential. *)
let test_pool_domains_of_env () =
  let check_ok raw expected =
    match Pool.domains_of_env raw with
    | Ok d -> Alcotest.(check int) (Printf.sprintf "%S" raw) expected d
    | Error msg -> Alcotest.failf "%S rejected: %s" raw msg
  in
  let check_err raw =
    match Pool.domains_of_env raw with
    | Ok d -> Alcotest.failf "%S accepted as %d" raw d
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error mentions the value" raw)
        true
        (msg <> "")
  in
  check_ok "1" 1;
  check_ok "4" 4;
  check_ok " 8 " 8;
  check_ok "64" 64;
  (* Values past the cap clamp rather than fail. *)
  check_ok "100" 64;
  check_err "";
  check_err "garbage";
  check_err "4.5";
  check_err "0";
  check_err "-3"

let test_pool_shutdown_degrades () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Alcotest.(check (array int)) "sequential after shutdown"
    [| 0; 1; 2 |]
    (Pool.map_array pool 3 (fun i -> i))

(* A map_array issued from inside a pool job must degrade to sequential
   execution instead of clobbering the in-flight job (parallel harness
   evaluation wraps training that fans attribute scans on the same
   pool). *)
let test_pool_nested () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let sum = Array.fold_left ( + ) 0 in
      let got =
        Pool.map_array pool 12 (fun i ->
            sum (Pool.map_array pool 50 (fun j -> (i * j) + 1)))
      in
      let expected =
        Array.init 12 (fun i -> sum (Array.init 50 (fun j -> (i * j) + 1)))
      in
      Alcotest.(check (array int)) "nested map matches" expected got)

(* ------------------------------------------------------------------ *)
(* Bitset                                                               *)
(* ------------------------------------------------------------------ *)

module Bitset = Pn_util.Bitset

(* Scratch: a borrow reuses any buffer at least as large as asked,
   whatever request left it; keys and indices name distinct buffers. *)
let test_scratch_reuse () =
  let module S = Pn_util.Scratch in
  let t = S.create () and k = S.key () and k' = S.key () in
  let a = S.floats t k 100 in
  Alcotest.(check int) "fresh length" 100 (Array.length a);
  Alcotest.(check bool) "smaller reuses" true (S.floats t k 50 == a);
  Alcotest.(check bool) "other index" false (S.floats t k ~at:1 50 == a);
  Alcotest.(check bool) "other key" false (S.floats t k' 50 == a);
  let b = S.floats t k 200 in
  Alcotest.(check int) "grown length" 200 (Array.length b);
  Alcotest.(check bool) "grown kept" true (S.floats t k 100 == b);
  let i = S.ints t k ~at:2 10 in
  Alcotest.(check bool) "ints reuse" true (S.ints t k ~at:2 3 == i);
  let m = S.bools t k ~at:3 10 in
  Alcotest.(check bool) "bools reuse" true (S.bools t k ~at:3 10 == m);
  let kb = S.key () and kbuf = S.key () in
  let y = S.bytes t kb 64 in
  Alcotest.(check bool) "bytes reuse" true (S.bytes t kb 10 == y);
  let buf = S.buffer t kbuf in
  Buffer.add_string buf "left over";
  Alcotest.(check int) "buffer emptied" 0 (Buffer.length (S.buffer t kbuf))

(* Scratch: [trim] drops the largest buffers until the total is within
   the limit, and keeps the rest. *)
let test_scratch_trim () =
  let module S = Pn_util.Scratch in
  let t = S.create () and k = S.key () and k1 = S.key () and k2 = S.key () in
  let small = S.bytes t k 1000 in
  let big = S.bytes t k1 S.retain_limit in
  let bigger = S.bytes t k2 (S.retain_limit + 1) in
  S.trim t;
  Alcotest.(check int) "both big ones dropped" 1000 (S.retained t);
  Alcotest.(check bool) "small kept" true (S.bytes t k 1000 == small);
  Alcotest.(check bool) "big dropped" false (S.bytes t k1 1000 == big);
  Alcotest.(check bool) "bigger dropped" false (S.bytes t k2 1000 == bigger);
  let t = S.create () in
  let half = S.floats t k (S.retain_limit / 16) in
  let other = S.ints t k ~at:1 (S.retain_limit / 16) in
  let before = S.retained t in
  S.trim t;
  Alcotest.(check int) "within the limit: untouched" before (S.retained t);
  Alcotest.(check bool) "kept" true
    (S.floats t k 1 == half && S.ints t k ~at:1 1 == other)

let test_bitset_basics () =
  Alcotest.(check int) "words_for 0" 0 (Bitset.words_for 0);
  Alcotest.(check int) "words_for 1" 1 (Bitset.words_for 1);
  Alcotest.(check int) "words_for word" 1 (Bitset.words_for Bitset.bits_per_word);
  Alcotest.(check int) "words_for word+1" 2 (Bitset.words_for (Bitset.bits_per_word + 1));
  let t = Bitset.create 130 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty t);
  Bitset.set t 0;
  Bitset.set t 64;
  Bitset.set t 129;
  Alcotest.(check bool) "get set" true (Bitset.get t 64);
  Alcotest.(check bool) "get unset" false (Bitset.get t 63);
  Alcotest.(check int) "count" 3 (Bitset.count t);
  Alcotest.(check (array int)) "to_indices" [| 0; 64; 129 |] (Bitset.to_indices t);
  let full = Bitset.full 130 in
  Alcotest.(check int) "full count" 130 (Bitset.count full);
  Bitset.diff ~into:full t;
  Alcotest.(check int) "diff count" 127 (Bitset.count full);
  Alcotest.(check bool) "diff cleared" false (Bitset.get full 64);
  Bitset.inter ~into:full t;
  Alcotest.(check bool) "inter disjoint empty" true (Bitset.is_empty full)

let bitset_ops_prop (n, sets_a, sets_b) =
  n = 0
  ||
  let a_idx = List.sort_uniq Int.compare (List.map (fun j -> j mod n) sets_a) in
  let b_idx = List.sort_uniq Int.compare (List.map (fun j -> j mod n) sets_b) in
  let a = Bitset.create n and b = Bitset.create n in
  List.iter (Bitset.set a) a_idx;
  List.iter (Bitset.set b) b_idx;
  let copy_of t =
    let c = Bitset.create n in
    Array.blit (Bitset.words t) 0 (Bitset.words c) 0 (Bitset.words_for n);
    c
  in
  let inter = copy_of a in
  Bitset.inter ~into:inter b;
  let diff = copy_of a in
  Bitset.diff ~into:diff b;
  let mem l i = List.mem i l in
  List.init n (Bitset.get inter)
  = List.init n (fun i -> mem a_idx i && mem b_idx i)
  && List.init n (Bitset.get diff)
     = List.init n (fun i -> mem a_idx i && not (mem b_idx i))
  && Bitset.count a = List.length a_idx
  && Bitset.to_indices a = Array.of_list a_idx
  && Bitset.is_empty a = (a_idx = [])

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                    *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  [
    QCheck.Test.make ~count:200 ~name:"bitset ops match naive sets"
      QCheck.(triple (int_range 0 200) (list small_nat) (list small_nat))
      bitset_ops_prop;
    QCheck.Test.make ~count:200 ~name:"rng int always in bounds"
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~count:200 ~name:"argsort output is sorted"
      QCheck.(array_of_size Gen.(int_range 0 50) (float_range (-100.) 100.))
      (fun a ->
        let idx = Arr.argsort_floats a in
        let ok = ref true in
        for i = 0 to Array.length idx - 2 do
          if a.(idx.(i)) > a.(idx.(i + 1)) then ok := false
        done;
        !ok && Array.length idx = Array.length a);
    QCheck.Test.make ~count:100 ~name:"binomial_upper in [e/n, 1]"
      QCheck.(pair (int_range 1 200) (int_range 0 200))
      (fun (n, e) ->
        let n = float_of_int n and e = float_of_int (min e n) in
        let e = Float.min e n in
        let u = Stats.binomial_upper ~cf:0.25 ~n ~e in
        u >= (e /. n) -. 1e-9 && u <= 1.0 +. 1e-9);
    QCheck.Test.make ~count:100 ~name:"entropy bounded by log2 k"
      QCheck.(array_of_size Gen.(int_range 1 8) (float_range 0.0 10.0))
      (fun a ->
        let h = Stats.entropy a in
        h >= -1e-9 && h <= Stats.log2 (float_of_int (Array.length a)) +. 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng: copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng: split" `Quick test_rng_split_diverges;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int invalid" `Quick test_rng_int_invalid;
    Alcotest.test_case "rng: int coverage" `Quick test_rng_int_coverage;
    Alcotest.test_case "rng: float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng: float mean" `Quick test_rng_float_mean;
    Alcotest.test_case "rng: bernoulli" `Quick test_rng_bernoulli;
    Alcotest.test_case "rng: gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng: triangular" `Quick test_rng_triangular_range;
    Alcotest.test_case "rng: shuffle is permutation" `Quick test_rng_shuffle_multiset;
    Alcotest.test_case "rng: choose" `Quick test_rng_choose;
    Alcotest.test_case "rng: sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "stats: log_gamma" `Quick test_log_gamma_known;
    Alcotest.test_case "stats: log_comb" `Quick test_log_comb;
    Alcotest.test_case "stats: entropy" `Quick test_entropy;
    Alcotest.test_case "stats: binomial upper basics" `Quick test_binomial_upper_basic;
    Alcotest.test_case "stats: binomial upper monotone" `Quick test_binomial_upper_monotone;
    Alcotest.test_case "stats: binomial upper (Quinlan)" `Quick test_binomial_upper_quinlan;
    Alcotest.test_case "stats: normal cdf" `Quick test_normal_cdf;
    Alcotest.test_case "stats: normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "stats: two-proportion z" `Quick test_two_proportion_z;
    Alcotest.test_case "stats: mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "arr: argsort" `Quick test_argsort;
    Alcotest.test_case "arr: max_by" `Quick test_max_by;
    Alcotest.test_case "arr: take/range/filteri" `Quick test_take_range_filteri;
    Alcotest.test_case "arr: sums" `Quick test_sums;
    Alcotest.test_case "pool: sequential" `Quick test_pool_sequential;
    Alcotest.test_case "pool: map matches init" `Quick test_pool_map_matches_init;
    Alcotest.test_case "pool: exception propagates" `Quick test_pool_exception;
    Alcotest.test_case "pool: shutdown degrades" `Quick test_pool_shutdown_degrades;
    Alcotest.test_case "pool: PNRULE_DOMAINS parsing" `Quick test_pool_domains_of_env;
    Alcotest.test_case "pool: nested map degrades" `Quick test_pool_nested;
    Alcotest.test_case "bitset: basics" `Quick test_bitset_basics;
    Alcotest.test_case "scratch: borrows reuse larger buffers" `Quick test_scratch_reuse;
    Alcotest.test_case "scratch: trim keeps the retention limit" `Quick test_scratch_trim;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
