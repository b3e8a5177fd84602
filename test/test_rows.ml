(* Tests for the row policy the five decoders share: what the CSV, ARFF
   and .pnc loads and the CSV and .pnc serving paths make of missing
   cells, NaN, values outside a dictionary and missing labels under
   Strict, Skip and Impute. *)

module A = Pn_data.Attribute
module D = Pn_data.Dataset
module R = Pn_data.Ingest_report
module C = Pn_data.Columnar

let policies = [ R.Strict; R.Skip; R.Impute ]

(* ------------------------------------------------------------------ *)
(* A seeded corpus of logical rows                                      *)
(* ------------------------------------------------------------------ *)

(* One cell as a row writer sees it. [Q] and [Empty] are the two ways a
   text file leaves a cell missing; a .pnc file flags both in a bitmap. *)
type cell = Num of float | Nan | Q | Empty | Word of string

(* The corpus schema: numeric x, y and z, categorical c over a, b and c,
   and the class. A [Word "u"] in c is outside every dictionary but a
   CSV file's own. *)
let categories = [| "a"; "b"; "c" |]

let classes = [| "neg"; "pos" |]

type case = {
  name : string;
  seed : int;
  rows : int;
  miss : float array;  (** per column, class last: chance of a missing cell *)
  nan : float;  (** chance of [nan] in y *)
  unseen : float;  (** chance of [u] in c *)
}

let cases =
  [
    { name = "mixed"; seed = 1; rows = 40; miss = [| 0.1; 0.1; 0.12; 0.2; 0.1 |]; nan = 0.15; unseen = 0.1 };
    { name = "z all missing"; seed = 2; rows = 12; miss = [| 0.05; 0.0; 0.05; 1.0; 0.0 |]; nan = 0.1; unseen = 0.0 };
    { name = "clean"; seed = 3; rows = 10; miss = [| 0.0; 0.0; 0.0; 0.0; 0.0 |]; nan = 0.2; unseen = 0.0 };
    { name = "c has ?"; seed = 4; rows = 16; miss = [| 0.0; 0.0; 0.25; 0.0; 0.0 |]; nan = 0.0; unseen = 0.0 };
  ]

(* Rows of five cells: x, y, c, z, class. A missing cell is [Q] or
   [Empty] with equal chance. *)
let corpus case =
  let rng = Pn_util.Rng.create case.seed in
  let missing j =
    if Pn_util.Rng.bernoulli rng case.miss.(j) then Some (if Pn_util.Rng.bool rng then Q else Empty)
    else None
  in
  let cell j draw = match missing j with Some c -> c | None -> draw () in
  List.init case.rows (fun _ ->
      let num () = Num (Pn_util.Rng.float rng 1.0) in
      [|
        cell 0 num;
        cell 1 (fun () -> if Pn_util.Rng.bernoulli rng case.nan then Nan else num ());
        cell 2 (fun () ->
            if Pn_util.Rng.bernoulli rng case.unseen then Word "u"
            else Word categories.(Pn_util.Rng.int rng 3));
        cell 3 num;
        cell 4 (fun () -> Word (if Pn_util.Rng.bernoulli rng 0.3 then "pos" else "neg"));
      |])

let text_cell = function
  | Num v -> Printf.sprintf "%.17g" v
  | Nan -> "nan"
  | Q -> "?"
  | Empty -> ""
  | Word s -> s

let text_rows rows =
  String.concat ""
    (List.map
       (fun row -> String.concat "," (Array.to_list (Array.map text_cell row)) ^ "\n")
       rows)

let csv_of rows = "x,y,c,z,class\n" ^ text_rows rows

let arff_of rows =
  "@relation corpus\n@attribute x numeric\n@attribute y numeric\n\
   @attribute c {a,b,c}\n@attribute z numeric\n@attribute class {neg,pos}\n@data\n"
  ^ text_rows rows

(* The same rows as a .pnc file of 8-row groups. A missing cell is
   flagged in its column's bitmap over a stored 0; a .pnc writer cannot
   express a missing label, so those rows are labeled [neg]. When c
   may hold [u] its dictionary lists the values in another order than
   the model's. *)
let pnc_of ~unseen rows =
  let rows = Array.of_list rows in
  let dict = if unseen then [| "c"; "a"; "u"; "b" |] else categories in
  let code s =
    match Array.find_index (String.equal s) dict with Some i -> i | None -> assert false
  in
  let num j =
    D.Num
      (Array.map
         (fun r -> match r.(j) with Num v -> v | Nan -> Float.nan | _ -> 0.0)
         rows)
  in
  let mask j =
    let m = Array.map (fun r -> match r.(j) with Q | Empty -> true | _ -> false) rows in
    if Array.exists Fun.id m then Some m else None
  in
  let ds =
    D.create
      ~attrs:[| A.numeric "x"; A.numeric "y"; A.categorical "c" dict; A.numeric "z" |]
      ~columns:
        [|
          num 0;
          num 1;
          D.Cat (Array.map (fun r -> match r.(2) with Word s -> code s | _ -> 0) rows);
          num 3;
        |]
      ~labels:(Array.map (fun r -> match r.(4) with Word "pos" -> 1 | _ -> 0) rows)
      ~classes ()
  in
  C.to_string ~group_size:8 ~missing:[| mask 0; mask 1; mask 2; mask 3 |] ds

(* A boosted model over the corpus schema whose score reads every
   column, so an imputed value shows in the output. *)
let model =
  let module Cd = Pn_rules.Condition in
  let member w conds = { Pnrule.Ensemble.rule = Pn_rules.Rule.of_conditions conds; weight = w } in
  Pnrule.Saved.Boosted
    (Pnrule.Ensemble.make ~target:1 ~classes
       ~attrs:[| A.numeric "x"; A.numeric "y"; A.categorical "c" categories; A.numeric "z" |]
       ~members:
        [|
          member 0.7 [ Cd.Num_le { col = 0; threshold = 0.5 } ];
          member 0.4 [ Cd.Num_ge { col = 1; threshold = 0.3 } ];
          member 0.5 [ Cd.Cat_eq { col = 2; value = 0 } ];
          member (-0.3) [ Cd.Cat_eq { col = 2; value = 1 } ];
          member 0.2 [ Cd.Num_le { col = 3; threshold = 0.5 } ];
          member 0.1 [ Cd.Num_range { col = 0; lo = 0.2; hi = 0.6 } ];
        |]
       ~bias:(-0.6) ~threshold:0.0)

(* ------------------------------------------------------------------ *)
(* Renderings at full precision                                         *)
(* ------------------------------------------------------------------ *)

let render_dataset b (ds : D.t) =
  Array.iter
    (fun (a : A.t) ->
      match a.kind with
      | A.Numeric -> Printf.bprintf b "%s num\n" a.name
      | A.Categorical v -> Printf.bprintf b "%s {%s}\n" a.name (String.concat "|" (Array.to_list v)))
    ds.D.attrs;
  Printf.bprintf b "classes {%s}\n" (String.concat "|" (Array.to_list ds.D.classes));
  for i = 0 to D.n_records ds - 1 do
    Array.iteri
      (fun j (a : A.t) ->
        if A.is_numeric a then Printf.bprintf b "%h," (D.num_value ds ~col:j i)
        else Printf.bprintf b "%d," (D.cat_value ds ~col:j i))
      ds.D.attrs;
    Printf.bprintf b "%d %h\n" (D.label ds i) ds.D.weights.(i)
  done

let render_report b (r : R.t) =
  Printf.bprintf b "read %d kept %d skipped %d imputed %d\n" r.R.rows_read r.R.rows_kept
    r.R.rows_skipped r.R.cells_imputed;
  List.iter (fun (line, msg) -> Printf.bprintf b "%d: %s\n" line msg) r.R.errors

let render_load b (ds, report) =
  render_dataset b ds;
  render_report b report

let render_serve b (out, (rep : Pnrule.Serve.report)) =
  Buffer.add_string b out;
  render_report b rep.Pnrule.Serve.ingest;
  Printf.bprintf b "chunks %d rows %d unknown labels %d\n" rep.Pnrule.Serve.chunks
    rep.Pnrule.Serve.rows_out rep.Pnrule.Serve.unknown_labels;
  match rep.Pnrule.Serve.confusion with
  | Some c ->
    Printf.bprintf b "tp %h fp %h fn %h tn %h\n" c.Pn_metrics.Confusion.tp
      c.Pn_metrics.Confusion.fp c.Pn_metrics.Confusion.fn c.Pn_metrics.Confusion.tn
  | None -> Buffer.add_string b "no confusion\n"

let serve_with f =
  let out = Buffer.create 1024 in
  let rep = f ~write:(Buffer.add_string out) in
  (Buffer.contents out, rep)

(* Each decoder's run of one case: what it renders, or its own typed
   error. *)
type decoder = {
  label : string;
  run : R.policy -> case -> cell array list -> Buffer.t -> unit;
}

let decoders =
  let guard b f =
    try f () with
    | Pn_data.Csv_io.Parse_error m -> Printf.bprintf b "Csv_io.Parse_error %s\n" m
    | Pn_data.Arff_io.Parse_error m -> Printf.bprintf b "Arff_io.Parse_error %s\n" m
    | C.Corrupt m -> Printf.bprintf b "Columnar.Corrupt %s\n" m
    | Pnrule.Serve.Error m -> Printf.bprintf b "Serve.Error %s\n" m
  in
  let source s = Pn_data.Stream.of_string s in
  [
    {
      label = "csv load";
      run =
        (fun policy _ rows b ->
          guard b (fun () ->
              render_load b (Pn_data.Csv_io.parse_string_with_report ~policy (csv_of rows))));
    };
    {
      label = "arff load";
      run =
        (fun policy _ rows b ->
          guard b (fun () ->
              render_load b (Pn_data.Arff_io.parse_string_with_report ~policy (arff_of rows))));
    };
    {
      label = "pnc load";
      run =
        (fun policy case rows b ->
          guard b (fun () ->
              let path = Filename.temp_file "pnrule_rows" ".pnc" in
              Fun.protect
                ~finally:(fun () -> Sys.remove path)
                (fun () ->
                  Out_channel.with_open_bin path (fun oc ->
                      output_string oc (pnc_of ~unseen:(case.unseen > 0.0) rows));
                  render_load b (C.load_with_report ~policy path))));
    };
    {
      label = "csv serve";
      run =
        (fun policy _ rows b ->
          guard b (fun () ->
              render_serve b
                (serve_with (fun ~write ->
                     Pnrule.Serve.predict_stream ~policy ~chunk_size:8 ~scores:true
                       ~pool:Pn_util.Pool.sequential ~model ~source:(source (csv_of rows))
                       ~write ()))));
    };
    {
      label = "pnc serve";
      run =
        (fun policy case rows b ->
          guard b (fun () ->
              render_serve b
                (serve_with (fun ~write ->
                     Pnrule.Serve.predict_columnar_stream ~policy ~scores:true
                       ~pool:Pn_util.Pool.sequential ~model
                       ~source:(source (pnc_of ~unseen:(case.unseen > 0.0) rows))
                       ~write ()))));
    };
  ]

(* Every case of one decoder under one policy. *)
let rendering d policy =
  let b = Buffer.create 4096 in
  List.iter
    (fun case ->
      Printf.bprintf b "== %s\n" case.name;
      d.run policy case (corpus case) b)
    cases;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Golden digests                                                       *)
(* ------------------------------------------------------------------ *)

(* MD5 of [rendering] per decoder and policy, taken from the five
   decoders as they stood before they shared one row store. A digest
   changes only with a rule of DESIGN.md's "Error policy" table, and
   CHANGES.md names the case and the rule: "csv load, impute" changed
   once, in its "z all missing" case, when a CSV column with no present
   value became numeric. *)
let golden =
  [
    (("csv load", R.Strict), "a4faa6822c2f55326037d4a68ad1103a");
    (("csv load", R.Skip), "98350eeb3d3ebdff5da99074823c9e2f");
    (("csv load", R.Impute), "50d68728e537da6c203347d4ca0ee657");
    (("arff load", R.Strict), "aa290b023a3ed3fec44703bb549a6e7e");
    (("arff load", R.Skip), "984f23ab501b343d385594e756a51ee3");
    (("arff load", R.Impute), "b5ae15ea2df59938a5b0575eb60a2e16");
    (("pnc load", R.Strict), "42beef624ec337fe9db08ba663460fc0");
    (("pnc load", R.Skip), "991fd67aa950617bb881cc883c51fb2c");
    (("pnc load", R.Impute), "bc0f3e44bad4c47571dcff4f591567af");
    (("csv serve", R.Strict), "40ea6e82f2750afda3733a7d9cddc23e");
    (("csv serve", R.Skip), "b8410e78dc0555087573cdae5a0cb8d4");
    (("csv serve", R.Impute), "c90e96010dd9bde37828a95863242050");
    (("pnc serve", R.Strict), "d2d16b731a413f91c9b031c758cd77a0");
    (("pnc serve", R.Skip), "cde54934dec1f187c2bb6f36fceac18d");
    (("pnc serve", R.Impute), "97224d78f0d01389cec4b3bda5acebc5");
  ]

let golden_case d policy =
  let name = Printf.sprintf "golden: %s, %s" d.label (R.policy_name policy) in
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name
        (List.assoc (d.label, policy) golden)
        (Digest.to_hex (Digest.string (rendering d policy))))

(* ------------------------------------------------------------------ *)
(* The rules, case by case                                              *)
(* ------------------------------------------------------------------ *)

(* An imputed numeric cell takes the median of the present values that
   are not NaN. *)
let test_arff_median_skips_nan () =
  let ds, report =
    Pn_data.Arff_io.parse_string_with_report ~policy:R.Impute
      "@relation t\n@attribute x numeric\n@attribute class {a,b}\n@data\n\
       nan,a\nnan,b\n5,a\n?,b\n"
  in
  Alcotest.(check int) "one cell imputed" 1 report.R.cells_imputed;
  Alcotest.(check (float 0.0)) "the median of 5" 5.0 (D.num_value ds ~col:0 3)

(* ------------------------------------------------------------------ *)
(* CSV and .pnc inputs of the same rows                                 *)
(* ------------------------------------------------------------------ *)

(* Four complete rows that open every generated file, so a CSV load
   learns the dictionary and class table a .pnc file declares: c over
   a, b, c and u, classes neg and pos. *)
let preamble =
  List.map
    (fun (c, label) -> [| Num 0.25; Num 0.5; Word c; Num 0.75; Word label |])
    [ ("a", "neg"); ("b", "pos"); ("c", "neg"); ("u", "pos") ]

(* Rows after the preamble, with a gap rate of 0 to 40% per file, and a
   group size that is also the CSV path's chunk size. *)
let row_gen =
  let open QCheck.Gen in
  int_range 0 4 >>= fun p ->
  let cell value = frequency [ (p, oneofl [ Q; Empty ]); (10 - p, value) ] in
  let num = cell (map (fun v -> Num v) (float_bound_inclusive 1.0)) in
  let row =
    num >>= fun x ->
    num >>= fun y ->
    cell (map (fun c -> Word c) (oneofl [ "a"; "b"; "c"; "u" ])) >>= fun c ->
    num >>= fun z -> map (fun l -> [| x; y; c; z; Word l |]) (oneofl [ "neg"; "pos" ])
  in
  pair (list_size (0 -- 30) row) (1 -- 8)

(* The same rows as a .pnc file: like [pnc_of], but over the dictionary
   the preamble teaches a CSV load, in its order. *)
let pnc_in_csv_order ~group_size rows =
  let rows = Array.of_list rows in
  let dict = [| "a"; "b"; "c"; "u" |] in
  let num j =
    D.Num (Array.map (fun r -> match r.(j) with Num v -> v | _ -> 0.0) rows)
  in
  let mask j =
    let m = Array.map (fun r -> match r.(j) with Q | Empty -> true | _ -> false) rows in
    if Array.exists Fun.id m then Some m else None
  in
  let code = function
    | Word s -> Option.get (Array.find_index (String.equal s) dict)
    | _ -> 0
  in
  C.to_string ~group_size
    ~missing:[| mask 0; mask 1; mask 2; mask 3 |]
    (D.create
       ~attrs:[| A.numeric "x"; A.numeric "y"; A.categorical "c" dict; A.numeric "z" |]
       ~columns:[| num 0; num 1; D.Cat (Array.map (fun r -> code r.(2)) rows); num 3 |]
       ~labels:(Array.map (fun r -> if r.(4) = Word "pos" then 1 else 0) rows)
       ~classes ())

(* A CSV file names a row by its line, one past the row's number in a
   .pnc file (the header); the rest of a report or message must agree. *)
let rebase_line msg =
  match String.index_opt msg ':' with
  | Some i when String.length msg > 5 && String.sub msg 0 5 = "line " ->
    Printf.sprintf "row %d%s"
      (int_of_string (String.sub msg 5 (i - 5)) - 1)
      (String.sub msg i (String.length msg - i))
  | _ -> msg

let same_report (a : R.t) (b : R.t) =
  a.R.rows_read = b.R.rows_read
  && a.R.rows_kept = b.R.rows_kept
  && a.R.rows_skipped = b.R.rows_skipped
  && a.R.cells_imputed = b.R.cells_imputed
  && List.map (fun (line, msg) -> (line - 1, msg)) a.R.errors = b.R.errors

let prop_csv_and_pnc_agree =
  QCheck.Test.make ~count:300 ~name:"CSV and .pnc of the same rows load and serve alike"
    (QCheck.make
       ~print:(fun (rows, g) -> Printf.sprintf "group %d\n%s" g (csv_of (preamble @ rows)))
       row_gen)
    (fun (rows, group_size) ->
      let rows = preamble @ rows in
      let csv = csv_of rows and pnc = pnc_in_csv_order ~group_size rows in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception
            ( Pn_data.Csv_io.Parse_error m
            | C.Corrupt m
            | Pnrule.Serve.Error m ) ->
          Error (rebase_line m)
      in
      let path = Filename.temp_file "pnrule_rows" ".pnc" in
      Out_channel.with_open_bin path (fun oc -> output_string oc pnc);
      let agree =
        List.for_all
          (fun policy ->
            let loads =
              match
                ( outcome (fun () -> Pn_data.Csv_io.parse_string_with_report ~policy csv),
                  outcome (fun () -> C.load_with_report ~policy path) )
              with
              | Ok (a, ra), Ok (b, rb) -> D.equal a b && same_report ra rb
              | Error a, Error b -> a = b
              | _ -> false
            in
            let serve f =
              outcome (fun () ->
                  serve_with (fun ~write ->
                      f ~policy ~scores:true ~pool:Pn_util.Pool.sequential ~model ~write))
            in
            let served =
              match
                ( serve (fun ~policy ~scores ~pool ~model ~write ->
                      Pnrule.Serve.predict_stream ~policy ~chunk_size:group_size ~scores ~pool
                        ~model ~source:(Pn_data.Stream.of_string csv) ~write ()),
                  serve (fun ~policy ~scores ~pool ~model ~write ->
                      Pnrule.Serve.predict_columnar_stream ~policy ~scores ~pool ~model
                        ~source:(Pn_data.Stream.of_string pnc) ~write ()) )
              with
              | Ok (out_a, ra), Ok (out_b, rb) ->
                String.equal out_a out_b
                && same_report ra.Pnrule.Serve.ingest rb.Pnrule.Serve.ingest
                && ra.Pnrule.Serve.confusion = rb.Pnrule.Serve.confusion
              | Error a, Error b -> a = b
              | _ -> false
            in
            loads && served)
          policies
      in
      Sys.remove path;
      agree)

(* A CSV column with no present value loads as numeric, like the same
   column of a .pnc file: under Impute both fill it with 0.0. *)
let test_all_missing_column () =
  let rows =
    [
      [| Num 0.25; Num 0.5; Word "a"; Q; Word "neg" |];
      [| Num 0.5; Num 0.75; Word "b"; Empty; Word "pos" |];
      [| Num 0.75; Q; Word "c"; Q; Word "neg" |];
      [| Num 1.0; Num 0.25; Word "u"; Empty; Word "pos" |];
    ]
  in
  let csv, csv_report = Pn_data.Csv_io.parse_string_with_report ~policy:R.Impute (csv_of rows) in
  let path = Filename.temp_file "pnrule_rows" ".pnc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (pnc_in_csv_order ~group_size:4 rows));
      let pnc, pnc_report = C.load_with_report ~policy:R.Impute path in
      Alcotest.(check bool) "z is numeric" true (A.is_numeric csv.D.attrs.(3));
      Alcotest.(check (float 0.0)) "z is filled with 0.0" 0.0 (D.num_value csv ~col:3 1);
      Alcotest.(check bool) "the CSV and .pnc loads are equal" true (D.equal csv pnc);
      Alcotest.(check bool) "and so are their reports" true (same_report csv_report pnc_report))

let suite =
  List.concat_map (fun d -> List.map (golden_case d) policies) decoders
  @ [
      Alcotest.test_case "impute: the median leaves NaN out" `Quick test_arff_median_skips_nan;
      QCheck_alcotest.to_alcotest prop_csv_and_pnc_agree;
      Alcotest.test_case "a CSV column with no present value is numeric" `Quick
        test_all_missing_column;
    ]
