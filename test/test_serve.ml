(* Tests for the serving core (Pnrule.Serve): what a request allocates,
   and what arbitrary request bodies can do to it. *)

module Sv = Pnrule.Saved
module R = Pn_data.Ingest_report

(* A PNrule model on nsyn3, the data the pnrule-direct benchmark
   serves, and CSV bodies written the way its load generator writes
   them. *)
let model =
  lazy
    (let train = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:81 ~n:8_000 in
     Sv.Single (Pnrule.Learner.train train ~target:Pn_synth.Numerical.target_class))

let csv_body ~seed ~rows =
  let ds = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed ~n:rows in
  let path = Filename.temp_file "pnrule_serve" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pn_data.Csv_io.save ds path;
      In_channel.with_open_bin path In_channel.input_all)

let serve ?policy ?chunk_size ?max_rows body =
  Pnrule.Serve.predict_stream ?policy ?chunk_size ?max_rows ~pool:Pn_util.Pool.sequential
    ~model:(Lazy.force model) ~source:(Pn_data.Stream.of_string body) ~write:ignore ()

(* A CSV request allocates by its rows, not by [chunk_size]: the column
   stores start small and double as rows arrive, and the tokenizer hands
   rows over as slices. These requests measure about 25 words per row
   and 2.0K words (84 per row when every cell became a string); with
   stores sized at 8192 rows per attribute they took about 310 words
   per row and 34.5K words. *)
let test_allocates_by_rows () =
  List.iter
    (fun (rows, bound) ->
      let body = csv_body ~seed:82 ~rows in
      ignore (serve body);
      let words = Test_ensemble.allocated_words (fun () -> serve body) in
      Alcotest.(check bool)
        (Printf.sprintf "%d-row body: %.0f words (%.1f per row) <= %.0f" rows words
           (words /. float_of_int rows) bound)
        true (words <= bound))
    [ (256, 150.0 *. 256.0); (1, 8_000.0) ]

(* The boosted-routed workload's shape: a sampled 100-round boosted
   ensemble on nsyn3, and 2048-row .pnc bodies of one row group. *)
let boosted =
  lazy
    (let train = Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed:83 ~n:10_000 in
     let instances =
       match Pn_induct.Sampling.instances_of_string "strat:0.1" with
       | Ok v -> v
       | Error msg -> failwith msg
     in
     Sv.Boosted
       (Pnrule.Ensemble.train
          ~params:{ Pnrule.Ensemble.default_params with rounds = 100 }
          ~sampling:{ Pn_induct.Sampling.none with instances }
          train ~target:Pn_synth.Numerical.target_class))

let pnc_body ?missing ~seed ~rows () =
  Pn_data.Columnar.to_string ?missing ~group_size:rows
    (Pn_synth.Numerical.generate (Pn_synth.Numerical.nsyn 3) ~seed ~n:rows)

(* A body fed the way the daemon feeds one: through a refill buffer
   that lives in the worker's scratch. *)
let k_body = Pn_util.Scratch.key ()

let body_source ~scratch body =
  let pos = ref 0 in
  Pn_data.Stream.of_refill ~buf:(Pn_util.Scratch.bytes scratch k_body 65536) (fun buf ->
      let n = min (Bytes.length buf) (String.length body - !pos) in
      Bytes.blit_string body !pos buf 0 n;
      pos := !pos + n;
      n)

let serve_pnc ~scratch ~model body =
  Pnrule.Serve.predict_columnar_stream ~pool:Pn_util.Pool.sequential ~scratch ~model
    ~source:(body_source ~scratch body) ~write:ignore ()

(* A warmed worker serves a .pnc request without a row-sized block on
   the major heap: group columns, labels, weights, predictions, scores,
   the compiled engine's ladders and the output buffer all come from
   its scratch. What remains there is the chunk's output string handed
   to [write] (1.5K words for 2048 rows). The request measures about
   1.5K major-heap words warm; without a scratch it takes about 46K. *)
let major_words_bound = 2_000.0

let test_warm_pnc_request () =
  let model = Lazy.force boosted in
  let body = pnc_body ~seed:84 ~rows:2048 () in
  let scratch = Pn_util.Scratch.create () in
  ignore (serve_pnc ~scratch ~model body);
  let a = Test_ensemble.allocation (fun () -> serve_pnc ~scratch ~model body) in
  Alcotest.(check bool)
    (Printf.sprintf "warm 2048-row .pnc request: %.0f major-heap words <= %.0f" a.major
       major_words_bound)
    true
    (a.major <= major_words_bound);
  (* Well inside the retention limit, so [trim] keeps all of it. *)
  let held = Pn_util.Scratch.retained scratch in
  Alcotest.(check bool)
    (Printf.sprintf "its buffers: %d bytes <= %d" held Pn_util.Scratch.retain_limit)
    true
    (held <= Pn_util.Scratch.retain_limit)

(* A string source reads its string in place: decoding a 2048-row .pnc
   string with a warm scratch measures about 350 words, none on the
   major heap, where a copy of the string took 6.8K words, 6.4K of them
   on the major heap. *)
let test_string_source_in_place () =
  let body = pnc_body ~seed:88 ~rows:2048 () in
  let scratch = Pn_util.Scratch.create () in
  let decode () =
    let r = Pn_data.Columnar.open_reader ~scratch (Pn_data.Stream.of_string body) in
    let rec rows n =
      match Pn_data.Columnar.read_group r with Some k -> rows (n + k) | None -> n
    in
    rows 0
  in
  Alcotest.(check int) "every row decoded" 2048 (decode ());
  let a = Test_ensemble.allocation decode in
  Alcotest.(check bool)
    (Printf.sprintf "warm decode of a 2048-row .pnc string: %.0f words <= 1000" a.words)
    true (a.words <= 1000.0)

(* A warmed worker's CSV request stays off the major heap as well: its
   column stores and labels come from the scratch like the .pnc
   path's group buffers. It measures at most 1.5K major-heap words
   warm, the chunk's output string again; with stores and labels of
   its own, doubled from 64 rows on every request, it took 14.3K. *)
let test_warm_csv_request () =
  let model = Lazy.force model in
  let body = csv_body ~seed:87 ~rows:2048 in
  let scratch = Pn_util.Scratch.create () in
  let serve () =
    Pnrule.Serve.predict_stream ~pool:Pn_util.Pool.sequential ~scratch ~model
      ~source:(body_source ~scratch body) ~write:ignore ()
  in
  ignore (serve ());
  let a = Test_ensemble.allocation serve in
  Alcotest.(check bool)
    (Printf.sprintf "warm 2048-row CSV request: %.0f major-heap words <= %.0f" a.major
       major_words_bound)
    true
    (a.major <= major_words_bound)

(* A warm 256-row CSV request, label column included, fed as the daemon
   feeds one: the tokenizer hands each row over as slices of one reused
   buffer, numeric cells parse straight into their column, and only the
   label's lookup makes a string. It measures about 1.7K words (6.6 per
   row); when every cell became a string, two list cells and an array
   slot it took 16.8K. *)
let test_warm_csv_words () =
  let model = Lazy.force model in
  let body = csv_body ~seed:89 ~rows:256 in
  let scratch = Pn_util.Scratch.create () in
  let serve () =
    Pnrule.Serve.predict_stream ~pool:Pn_util.Pool.sequential ~scratch ~model
      ~source:(body_source ~scratch body) ~write:ignore ()
  in
  ignore (serve ());
  let words = Test_ensemble.allocated_words serve in
  Alcotest.(check bool)
    (Printf.sprintf "warm 256-row CSV request: %.0f words <= 4000" words)
    true (words <= 4_000.0)

(* Scores cost little more than predictions: a score is formatted only
   when it differs from the previous row's, and the benchmark body's
   boosted scores are the bias on all but a few dozen rows. With scores
   the warm 2048-row .pnc request measures about 7.7K words against
   4.5K without; formatting every row took 125.6K. *)
let test_scores_formatted_once () =
  let model = Lazy.force boosted in
  let body = pnc_body ~seed:84 ~rows:2048 () in
  let scratch = Pn_util.Scratch.create () in
  let words scores =
    let serve () =
      Pnrule.Serve.predict_columnar_stream ~pool:Pn_util.Pool.sequential ~scratch ~scores
        ~model ~source:(body_source ~scratch body) ~write:ignore ()
    in
    ignore (serve ());
    Test_ensemble.allocated_words serve
  in
  let plain = words false and scored = words true in
  Alcotest.(check bool)
    (Printf.sprintf "with scores %.0f words <= 2 x %.0f without" scored plain)
    true
    (scored <= 2.0 *. plain)

(* The same worker across row counts: warmed by its largest request, it
   serves smaller ones from the same buffers, so a 2047-, a 1000- and a
   2048-row request in turn stay within the bound each, where buffers
   sized exactly by the request would replace every row-sized one on
   every call. *)
let test_warm_mixed_sizes () =
  let model = Lazy.force boosted in
  let bodies = List.map (fun rows -> pnc_body ~seed:rows ~rows ()) [ 2047; 1000; 2048 ] in
  let scratch = Pn_util.Scratch.create () in
  ignore (serve_pnc ~scratch ~model (pnc_body ~seed:85 ~rows:2048 ()));
  let a =
    Test_ensemble.allocation (fun () ->
        List.iter (fun body -> ignore (serve_pnc ~scratch ~model body)) bodies)
  in
  let bound = 3.0 *. major_words_bound in
  Alcotest.(check bool)
    (Printf.sprintf "2047, 1000, 2048 rows: %.0f major-heap words <= %.0f" a.major bound)
    true (a.major <= bound)

(* A wide body with one large group borrows more than a worker keeps:
   40 numeric columns of 16384 rows decode into 5 MiB of columns alone.
   After the request, [trim] (which the listener runs after each one)
   leaves at most the retention limit, and the next request still
   answers like a fresh worker. *)
let test_wide_body_retention () =
  let cols = 40 and rows = 16384 in
  let attrs = Array.init cols (fun j -> Pn_data.Attribute.numeric (Printf.sprintf "x%d" j)) in
  let classes = [| "NC"; "C" |] in
  let rng = Pn_util.Rng.create 86 in
  let ds =
    Pn_data.Dataset.create ~attrs
      ~columns:
        (Array.init cols (fun _ ->
             Pn_data.Dataset.Num (Array.init rows (fun _ -> Pn_util.Rng.float rng 1.0))))
      ~labels:(Array.init rows (fun i -> i mod 2))
      ~classes ()
  in
  let module C = Pn_rules.Condition in
  let members =
    Array.init cols (fun j ->
        {
          Pnrule.Ensemble.rule =
            Pn_rules.Rule.of_conditions [ C.Num_le { col = j; threshold = 0.5 } ];
          weight = 0.1;
        })
  in
  let model =
    Sv.Boosted
      (Pnrule.Ensemble.make ~target:1 ~classes ~attrs ~members ~bias:(-1.0) ~threshold:0.0)
  in
  let wide = Pn_data.Columnar.to_string ~group_size:rows ds in
  let answer ~scratch body =
    let out = Buffer.create 4096 in
    ignore
      (Pnrule.Serve.predict_columnar_stream ~pool:Pn_util.Pool.sequential ~scratch ~model
         ~source:(Pn_data.Stream.of_string body) ~write:(Buffer.add_string out) ());
    Buffer.contents out
  in
  let scratch = Pn_util.Scratch.create () in
  let first = answer ~scratch wide in
  let held = Pn_util.Scratch.retained scratch in
  Alcotest.(check bool)
    (Printf.sprintf "the request held %d bytes > %d" held Pn_util.Scratch.retain_limit)
    true
    (held > Pn_util.Scratch.retain_limit);
  Pn_util.Scratch.trim scratch;
  let kept = Pn_util.Scratch.retained scratch in
  Alcotest.(check bool)
    (Printf.sprintf "trimmed to %d bytes <= %d" kept Pn_util.Scratch.retain_limit)
    true
    (kept <= Pn_util.Scratch.retain_limit);
  Alcotest.(check string) "wide body again"
    (answer ~scratch:(Pn_util.Scratch.create ()) wide)
    (answer ~scratch wide);
  Alcotest.(check string) "first answer" first (answer ~scratch wide)

(* Arbitrary bytes after four kinds of header: each call returns a
   report or raises one of the two typed errors the daemon maps to
   status codes, under every policy and at chunk sizes that put chunk
   boundaries anywhere in the body. *)
let arbitrary_body_gen =
  let header_gen =
    QCheck.Gen.oneofl
      [
        "a0,a1,a2,class\n";
        "a0,a1,a2\n";
        "class,a2,a0,a1\r\n";
        "";
      ]
  in
  let byte_gen = QCheck.Gen.oneofl [ 'a'; '1'; ','; '"'; '\n'; '\r'; ' '; '?'; 'N'; 'C' ] in
  QCheck.Gen.(map2 ( ^ ) header_gen (string_size ~gen:byte_gen (0 -- 200)))

let test_arbitrary_bodies =
  QCheck.Test.make ~count:2_000 ~name:"arbitrary CSV bodies: a report or a typed error"
    QCheck.(make ~print:(Printf.sprintf "%S") arbitrary_body_gen)
    (fun body ->
      List.for_all
        (fun policy ->
          List.for_all
            (fun chunk_size ->
              match serve ~policy ~chunk_size ~max_rows:50 body with
              | _ -> true
              | exception (Pnrule.Serve.Error _ | Pnrule.Serve.Limit _) -> true)
            [ 1; 3; 8192 ])
        [ R.Strict; R.Skip; R.Impute ])

(* The serving loop reads each row from the tokenizer's row buffer,
   never from the refill buffer a later refill overwrites: a body fed in
   refills of 1 to 24 bytes answers with the bytes, the report and the
   error of the same body read from a string, under every policy. The
   bodies are the arbitrary ones above and valid benchmark rows. *)
let test_refills_serve_alike =
  let refilled ~buf_size body =
    let pos = ref 0 in
    Pn_data.Stream.of_refill ~buf:(Bytes.create buf_size) (fun buf ->
        let n = min (Bytes.length buf) (String.length body - !pos) in
        Bytes.blit_string body !pos buf 0 n;
        pos := !pos + n;
        n)
  in
  let answer ~policy ~chunk_size source =
    let out = Buffer.create 256 in
    match
      Pnrule.Serve.predict_stream ~policy ~chunk_size ~max_rows:50 ~pool:Pn_util.Pool.sequential
        ~model:(Lazy.force model) ~source ~write:(Buffer.add_string out) ()
    with
    | report -> Ok (Buffer.contents out, { report with Pnrule.Serve.seconds = 0.0 })
    | exception Pnrule.Serve.Error msg -> Error ("error: " ^ msg)
    | exception Pnrule.Serve.Limit msg -> Error ("limit: " ^ msg)
  in
  let valid_gen =
    QCheck.Gen.(map2 (fun seed rows -> csv_body ~seed ~rows) (1 -- 10_000) (0 -- 40))
  in
  QCheck.Test.make ~count:300 ~name:"CSV bodies serve alike through refills of 1-24 bytes"
    QCheck.(
      make
        ~print:(fun (body, buf_size, chunk_size) ->
          Printf.sprintf "%S, %d-byte refills, chunk %d" body buf_size chunk_size)
        Gen.(
          triple
            (frequency [ (2, arbitrary_body_gen); (1, valid_gen) ])
            (1 -- 24) (oneofl [ 1; 3; 8192 ])))
    (fun (body, buf_size, chunk_size) ->
      List.for_all
        (fun policy ->
          answer ~policy ~chunk_size (Pn_data.Stream.of_string body)
          = answer ~policy ~chunk_size (refilled ~buf_size body))
        [ R.Strict; R.Skip; R.Impute ])

let suite =
  [
    Alcotest.test_case "CSV requests allocate by rows" `Quick test_allocates_by_rows;
    Alcotest.test_case "a warmed worker's .pnc request stays off the major heap" `Quick
      test_warm_pnc_request;
    Alcotest.test_case "a string source is read in place" `Quick
      test_string_source_in_place;
    Alcotest.test_case "a warmed worker's CSV request stays off the major heap" `Quick
      test_warm_csv_request;
    Alcotest.test_case "a warm 256-row CSV request allocates at most 4 000 words" `Quick
      test_warm_csv_words;
    Alcotest.test_case "scores cost at most twice the words of predictions" `Quick
      test_scores_formatted_once;
    Alcotest.test_case "a warmed worker stays off the major heap across row counts"
      `Quick test_warm_mixed_sizes;
    Alcotest.test_case "a wide body leaves at most the retention limit" `Quick
      test_wide_body_retention;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ test_arbitrary_bodies; test_refills_serve_alike ]
