(* Fraud detection with mixed attribute types and a CSV round trip.

   Builds a card-transaction dataset (0.4 % fraud) column by column,
   saves it to CSV, loads it back (exercising schema inference), and
   compares PNrule's parameter grid against RIPPER.

   Run with: dune exec examples/fraud_detection.exe *)

let categories = [| "grocery"; "fuel"; "electronics"; "travel"; "jewelry"; "other" |]

let countries = [| "domestic"; "nearby"; "far" |]

let make_dataset ~seed ~n =
  let rng = Pn_util.Rng.create seed in
  let attrs =
    [|
      Pn_data.Attribute.numeric "amount";
      Pn_data.Attribute.numeric "hour";
      Pn_data.Attribute.numeric "txn_last_24h";
      Pn_data.Attribute.categorical "merchant" categories;
      Pn_data.Attribute.categorical "country" countries;
    |]
  in
  let num () = Array.make n 0.0 and cat () = Array.make n 0 in
  let amount = num () and hour = num () and burst = num () in
  let merchant = cat () and country = cat () and labels = cat () in
  for i = 0 to n - 1 do
    let fraud = Pn_util.Rng.bernoulli rng 0.004 in
    let night_owl = Pn_util.Rng.bernoulli rng 0.08 in
    let a, h, b, m, c =
      if fraud then
        (* Fraud: high-value electronics/jewelry from far away, at night,
           in bursts. Impure: night-owl travellers share most of it. *)
        ( 300.0 +. Pn_util.Rng.float rng 1500.0,
          Pn_util.Rng.float rng 6.0,
          4.0 +. Pn_util.Rng.float rng 12.0,
          (if Pn_util.Rng.bool rng then 2 else 4),
          2 )
      else if night_owl then
        ( 200.0 +. Pn_util.Rng.float rng 1200.0,
          Pn_util.Rng.float rng 6.0,
          Pn_util.Rng.float rng 4.0,
          3,
          2 )
      else
        ( 5.0 +. Pn_util.Rng.float rng 200.0,
          7.0 +. Pn_util.Rng.float rng 16.0,
          Pn_util.Rng.float rng 5.0,
          Pn_util.Rng.int rng (Array.length categories),
          if Pn_util.Rng.bernoulli rng 0.9 then 0 else 1 )
    in
    amount.(i) <- a;
    hour.(i) <- h;
    burst.(i) <- b;
    merchant.(i) <- m;
    country.(i) <- c;
    labels.(i) <- (if fraud then 1 else 0)
  done;
  Pn_data.Dataset.create ~attrs
    ~columns:Pn_data.Dataset.[| Num amount; Num hour; Num burst; Cat merchant; Cat country |]
    ~labels ~classes:[| "legit"; "fraud" |] ()

let () =
  let train = make_dataset ~seed:7 ~n:80_000 in
  let test = make_dataset ~seed:8 ~n:40_000 in

  (* Round-trip through CSV to show the file-based workflow. *)
  let path = Filename.temp_file "fraud" ".csv" in
  Pn_data.Csv_io.save train path;
  let train = Pn_data.Csv_io.load path in
  Sys.remove path;
  let target = Pn_data.Dataset.class_index train "fraud" in
  Format.printf "%a@." Pn_data.Dataset.pp_summary train;

  (* Paper protocol: try PNrule's small rp × rn grid, keep the best. *)
  let results =
    Pn_harness.Experiment.run_all
      (Pn_harness.Methods.pnrule_grid ())
      ~train ~test ~target
  in
  List.iter
    (fun (r : Pn_harness.Experiment.result) ->
      Format.printf "%-24s F=%.4f (R=%.3f, P=%.3f)@." r.method_name r.f_measure
        r.recall r.precision)
    results;
  let best = Pn_harness.Experiment.best_of ~name:"PNrule(best)" results in
  let ripper =
    Pn_harness.Experiment.run (Pn_harness.Methods.ripper ()) ~train ~test ~target
  in
  Format.printf "@.%-24s F=%.4f@." best.method_name best.f_measure;
  Format.printf "%-24s F=%.4f@." ripper.method_name ripper.f_measure
