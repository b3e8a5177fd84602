(* Tests for the CSV serving core (Pnrule.Serve.predict_stream): what a
   request allocates, and what arbitrary request bodies can do to it. *)

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
   stores start small and double as rows arrive, and the byte reader
   returns ints. These requests measure about 116 words per row and
   1.9K words; with stores sized at 8192 rows per attribute they took
   about 310 words per row and 34.5K words. *)
let test_allocates_by_rows () =
  List.iter
    (fun (rows, bound) ->
      let body = csv_body ~seed:82 ~rows in
      ignore (serve body);
      (* The least of five: a major cycle that ends inside the window
         adds a few thousand words that the request did not allocate. *)
      let words =
        List.fold_left min infinity
          (List.init 5 (fun _ -> Test_ensemble.allocated_words (fun () -> serve body)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d-row body: %.0f words (%.1f per row) <= %.0f" rows words
           (words /. float_of_int rows) bound)
        true (words <= bound))
    [ (256, 150.0 *. 256.0); (1, 8_000.0) ]

(* Arbitrary bytes after four kinds of header: each call returns a
   report or raises one of the two typed errors the daemon maps to
   status codes, under every policy and at chunk sizes that put chunk
   boundaries anywhere in the body. *)
let test_arbitrary_bodies =
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
  QCheck.Test.make ~count:2_000 ~name:"arbitrary CSV bodies: a report or a typed error"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(map2 ( ^ ) header_gen (string_size ~gen:byte_gen (0 -- 200))))
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

let suite =
  [ Alcotest.test_case "CSV requests allocate by rows" `Quick test_allocates_by_rows ]
  @ List.map QCheck_alcotest.to_alcotest [ test_arbitrary_bodies ]
