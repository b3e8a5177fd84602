(* Golden SHA-256 digests of what the two learners that score through
   the compiled engine produce: the serialized PNrule and boosted models
   trained at fixed seeds on small nsyn3 and kdd-train data, and each
   model's Serve output, with scores, on a CSV and a .pnc holdout.
   Both learners call the engine while training (PNrule's P-phase
   coverage, the booster's per-round coverage), so an engine change
   that moved one first match or coverage bit would show in the model
   bytes as well as in the responses. The digests were taken before the
   engine became a box walk and must hold at any PNRULE_DOMAINS.
   [sha256sum] of the same bytes gives the same hex. *)

module Sv = Pnrule.Saved

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4) over native ints masked to 32 bits              *)
(* ------------------------------------------------------------------ *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let sha256 s =
  let mask = 0xffffffff in
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask in
  let len = String.length s in
  let padded_len = ((len + 8) / 64 + 1) * 64 in
  let m = Bytes.make padded_len '\000' in
  Bytes.blit_string s 0 m 0 len;
  Bytes.set m len '\x80';
  let bits = len * 8 in
  for i = 0 to 7 do
    Bytes.set m (padded_len - 1 - i) (Char.chr ((bits lsr (8 * i)) land 0xff))
  done;
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
       0x1f83d9ab; 0x5be0cd19 |]
  in
  let w = Array.make 64 0 in
  for block = 0 to (padded_len / 64) - 1 do
    for t = 0 to 15 do
      let b i = Char.code (Bytes.get m ((block * 64) + (4 * t) + i)) in
      w.(t) <- (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land mask land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]
  done;
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))

let test_sha256 () =
  List.iter
    (fun (input, want) -> Alcotest.(check string) (Printf.sprintf "%S" input) want (sha256 input))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]

(* ------------------------------------------------------------------ *)
(* The pinned outputs                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp suffix f =
  let path = Filename.temp_file "pnrule-golden" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [Serve]'s output on a holdout written to disk as CSV and as .pnc,
   read back through the same file paths `pnrule predict` takes. *)
let served ~policy model holdout =
  let out save predict =
    with_temp ".in" (fun input ->
        save holdout input;
        with_temp ".out" (fun output ->
            Out_channel.with_open_bin output (fun oc ->
                ignore (predict ~policy ~scores:true ~model ~input ~output:oc ()));
            read_file output))
  in
  ( out Pn_data.Csv_io.save (fun ~policy ~scores ~model ~input ~output () ->
        Pnrule.Serve.predict_csv ~policy ~scores ~model ~input ~output ()),
    out
      (fun ds path -> Pn_data.Columnar.save ds path)
      (fun ~policy ~scores ~model ~input ~output () ->
        Pnrule.Serve.predict_pnc ~policy ~scores ~model ~input ~output ()) )

(* PNrule trains on every record and column; the booster samples half
   of each class per round, all columns, so both kdd models test the
   categorical [service] column. *)
let boosted_params = { Pnrule.Ensemble.default_params with rounds = 20 }

let boosted_sampling =
  {
    Pn_induct.Sampling.none with
    instances = Pn_induct.Sampling.Stratified { fraction = 0.5; min_per_class = 1 };
    seed = 7;
  }

let nsyn3 () =
  let spec = Pn_synth.Numerical.nsyn 3 in
  ( Pn_synth.Numerical.generate spec ~seed:11 ~n:6000,
    Pn_synth.Numerical.generate spec ~seed:12 ~n:1500,
    Pn_synth.Numerical.target_class,
    Pn_data.Ingest_report.Strict )

(* The kdd holdout holds values the training data never had (flag
   RSTO among them), which only the impute policy scores. *)
let kdd () =
  ( Pn_synth.Kddcup.train ~seed:3 ~n:8000,
    Pn_synth.Kddcup.test ~seed:4 ~n:1500,
    Pn_synth.Kddcup.r2l,
    Pn_data.Ingest_report.Impute )

(* (name, data, learner, digest of the model bytes, digest of the
   served holdout, which the CSV and the .pnc input must both give). *)
let cases =
  [
    ( "nsyn3 pnrule", nsyn3, `Pnrule,
      "c1d6180c0dbfd4338885b0f5012ba2f678d383f47617f63dab26eb6ef7f8f141",
      "d5ebe1e315d83e3ac64a235a29fce911378d523857242ba99b99fb364fcb6636" );
    ( "nsyn3 boosted", nsyn3, `Boosted,
      "b423ce520877f956aaba4936b939eff3f5af7e689e0d6f86b4680e47e3bd52ff",
      "10d7adfb5dc991bc5f1c80dc35be611eaa1e78df2f18d7d24aae8a2a56a01a44" );
    ( "kdd pnrule", kdd, `Pnrule,
      "17b0bdc370fc94646fa2ea0477cfbba0adf0e277195e6c0b76784e3f64e73515",
      "c7538bbcc0dd8baecc209b2f1086291083ba6c52c7a8c7e0e67a7ba543d2f797" );
    ( "kdd boosted", kdd, `Boosted,
      "48b2349ba64c40839843c111cb295f8119e6dc5fe1f90ee46282f91d5e3410ab",
      "43958914faa1e8e990ca4678909df75360813de5663acf4dd3f01e17ca3abf61" );
  ]

let test_case (_, data, learner, model_digest, served_digest) () =
  let train, holdout, target, policy = data () in
  let model =
    match learner with
    | `Pnrule -> Sv.Single (Pnrule.Learner.train train ~target)
    | `Boosted ->
      Sv.Boosted
        (Pnrule.Ensemble.train ~params:boosted_params ~sampling:boosted_sampling train
           ~target)
  in
  let csv, pnc = served ~policy model holdout in
  Alcotest.(check string) "model bytes" model_digest
    (sha256 (Pnrule.Serialize.to_string model));
  Alcotest.(check string) "served from CSV" served_digest (sha256 csv);
  Alcotest.(check string) "served from .pnc" served_digest (sha256 pnc)

let suite =
  Alcotest.test_case "sha256 test vectors" `Quick test_sha256
  :: List.map
       (fun ((name, _, _, _, _) as c) -> Alcotest.test_case name `Quick (test_case c))
       cases
