(* Tests for the streaming CSV/line decoder (Pn_data.Stream). *)

module S = Pn_data.Stream

(* Collect every row of a CSV source as (line, result) pairs. *)
let rows_of src =
  List.rev
    (S.fold_csv src ~init:[] ~f:(fun acc ~line result -> (line, result) :: acc))

let rows s = rows_of (S.of_string s)

let lines s =
  List.rev
    (S.fold_lines (S.of_string s) ~init:[] ~f:(fun acc ~line text ->
         (line, text) :: acc))

let ok cells = Ok (Array.of_list cells)

(* Any Error payload compares equal: the messages are for humans and the
   tests should not freeze their wording. *)
let row_result =
  Alcotest.testable
    (fun ppf -> function
      | Ok cells ->
        Format.fprintf ppf "Ok [%s]" (String.concat ";" (Array.to_list cells))
      | Error e -> Format.fprintf ppf "Error %S" e)
    (fun a b ->
      match (a, b) with
      | Ok x, Ok y -> x = y
      | Error _, Error _ -> true
      | _ -> false)

let check_rows msg expected s =
  Alcotest.(check (list (pair int row_result))) msg expected (rows s)

let test_basic () =
  check_rows "two rows" [ (1, ok [ "a"; "b" ]); (2, ok [ "1"; "2" ]) ] "a,b\n1,2\n";
  check_rows "no trailing newline" [ (1, ok [ "a"; "b" ]) ] "a,b";
  check_rows "empty fields kept" [ (1, ok [ ""; ""; "" ]) ] ",,\n";
  check_rows "empty input" [] "";
  check_rows "single column" [ (1, ok [ "x" ]); (2, ok [ "y" ]) ] "x\ny\n"

let test_crlf () =
  check_rows "CRLF parses like LF"
    [ (1, ok [ "a"; "b" ]); (2, ok [ "1"; "2" ]) ]
    "a,b\r\n1,2\r\n";
  check_rows "CR at EOF stripped" [ (1, ok [ "a"; "b" ]) ] "a,b\r";
  (* A CR not followed by a row boundary is literal content. *)
  check_rows "lone CR mid-field is literal" [ (1, ok [ "a\rb" ]) ] "a\rb\n";
  check_rows "CR inside quotes is literal" [ (1, ok [ "a\r\nb" ]) ] "\"a\r\nb\"\n"

let test_quoting () =
  check_rows "comma in quotes" [ (1, ok [ "a,b"; "c" ]) ] "\"a,b\",c\n";
  check_rows "escaped quote" [ (1, ok [ "say \"hi\"" ]) ] "\"say \"\"hi\"\"\"\n";
  check_rows "empty quoted field" [ (1, ok [ ""; "x" ]) ] "\"\",x\n";
  (* A quoted field spans physical lines; the next row's line number
     accounts for the newlines consumed inside the quotes. *)
  check_rows "newline inside quotes"
    [ (1, ok [ "a\nb"; "c" ]); (3, ok [ "d" ]) ]
    "\"a\nb\",c\nd\n"

let test_errors () =
  check_rows "bare quote mid-field is an error" [ (1, Error "_") ] "a\"b\n";
  check_rows "char after closing quote is an error" [ (1, Error "_") ] "\"a\"b\n";
  check_rows "unterminated quote is an error" [ (1, Error "_") ] "\"abc";
  (* After an error the machine resynchronizes at the next newline. *)
  check_rows "resync continues decoding"
    [ (1, Error "_"); (2, ok [ "x"; "y" ]) ]
    "a\"b,z\nx,y\n";
  (* Resync across a quoted field's newline: the error row swallows
     everything up to the next physical newline. *)
  check_rows "quote error then clean row"
    [ (1, Error "_"); (2, ok [ "ok" ]) ]
    "\"a\"!\nok\n"

let test_blank_rows () =
  check_rows "blank lines dropped"
    [ (1, ok [ "a"; "b" ]); (3, ok [ "1"; "2" ]) ]
    "a,b\n\n1,2\n";
  check_rows "whitespace-only dropped" [ (2, ok [ "x" ]) ] "   \nx\n";
  (* A quoted empty field is a deliberate value, not a blank line. *)
  check_rows "quoted empty row kept" [ (1, ok [ "" ]) ] "\"\"\n"

(* Every buffer size must decode identically: boundaries may fall inside
   quotes, escapes, CRLF pairs and multi-byte rows. *)
let test_buffer_boundaries () =
  let text = "a,b,c\r\n\"x,\"\"y\"\",\nz\",2,3\n\n q\"q,1,2\nlast,\"\",\"ok\"\r\n" in
  let reference = rows text in
  for buf_size = 1 to 24 do
    let path = Filename.temp_file "pnrule_stream" ".csv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        In_channel.with_open_bin path (fun ic ->
            let got = rows_of (S.of_channel ~buf_size ic) in
            Alcotest.(check (list (pair int row_result)))
              (Printf.sprintf "buf_size %d" buf_size)
              reference got))
  done

let test_fold_lines () =
  Alcotest.(check (list (pair int string)))
    "lines with CRLF and EOF"
    [ (1, "a"); (2, "b"); (3, ""); (4, "c") ]
    (lines "a\r\nb\n\nc");
  Alcotest.(check (list (pair int string))) "empty" [] (lines "");
  Alcotest.(check (list (pair int string))) "final newline" [ (1, "x") ] (lines "x\n")

(* ------------------------------------------------------------------ *)
(* Golden decode of arbitrary bytes                                     *)
(* ------------------------------------------------------------------ *)

(* The tokenizer's whole alphabet: field and row separators, quotes, a
   bare CR, padding and two kinds of content byte. *)
let alphabet = "a1,\"\n\r "

(* Bytes drawn uniformly from [alphabet] up to the [rows]-th newline.
   The generator is the library's splitmix64, so the corpus and its
   digests do not depend on the stdlib's [Random]. *)
let corpus ~seed ~rows =
  let rng = Pn_util.Rng.create seed in
  let b = Buffer.create (rows * 8) in
  let lines = ref 0 in
  while !lines < rows do
    let c = alphabet.[Pn_util.Rng.int rng (String.length alphabet)] in
    if c = '\n' then incr lines;
    Buffer.add_char b c
  done;
  Buffer.contents b

(* Every row's line number and cells (length-prefixed), each error as
   one marker: messages are for humans and stay out of the digest. *)
let csv_digest decoded =
  let b = Buffer.create 4096 in
  List.iter
    (fun (line, r) ->
      match r with
      | Ok cells ->
        Printf.bprintf b "%d:%d" line (Array.length cells);
        Array.iter (fun c -> Printf.bprintf b "|%d:%s" (String.length c) c) cells;
        Buffer.add_char b '\n'
      | Error _ -> Printf.bprintf b "%d:E\n" line)
    decoded;
  Digest.to_hex (Digest.string (Buffer.contents b))

let lines_digest decoded =
  let b = Buffer.create 4096 in
  List.iter
    (fun (line, text) -> Printf.bprintf b "%d:%d:%s\n" line (String.length text) text)
    decoded;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A source that hands out [s] through a refill buffer of [buf_size]
   bytes, so refills split rows, quotes, escapes and CRLF pairs. *)
let chunked ~buf_size s =
  let pos = ref 0 in
  S.of_refill ~buf:(Bytes.create buf_size) (fun buf ->
      let n = min (Bytes.length buf) (String.length s - !pos) in
      Bytes.blit_string s !pos buf 0 n;
      pos := !pos + n;
      n)

let lines_of src =
  List.rev (S.fold_lines src ~init:[] ~f:(fun acc ~line text -> (line, text) :: acc))

(* Digests taken from the decoder as it stood before the byte reader
   stopped allocating: any change to a state, a line number, a cell or
   the resync after an error changes them. *)
let test_golden_digests () =
  let text = corpus ~seed:20 ~rows:2000 in
  Alcotest.(check int) "corpus size" 13_478 (String.length text);
  List.iter
    (fun (name, src) ->
      Alcotest.(check string) ("fold_csv " ^ name) "15a419e200bdb17840074dd66d184fdc"
        (csv_digest (rows_of (src ())));
      Alcotest.(check string) ("fold_lines " ^ name) "28bf84677115011b086c03b2488d4614"
        (lines_digest (lines_of (src ()))))
    [
      ("of_string", fun () -> S.of_string text);
      ("7-byte refills", fun () -> chunked ~buf_size:7 text);
    ]

let qcheck_props =
  (* Fields made only of safe characters round-trip through quoting at
     any buffer size; this hammers refill boundaries randomly. *)
  let field_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; '\n'; '\r'; ' ' ]) (0 -- 6))
  in
  let quote s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  in
  let byte_gen =
    QCheck.Gen.oneofl (List.init (String.length alphabet) (String.get alphabet))
  in
  [
    (* Errors, resync and bare CRs that straddle a refill: every buffer
       size decodes arbitrary bytes exactly as the whole string does,
       error messages included. *)
    QCheck.Test.make ~count:300 ~name:"arbitrary bytes decode alike at every buffer size"
      QCheck.(make ~print:(Printf.sprintf "%S") Gen.(string_size ~gen:byte_gen (0 -- 120)))
      (fun text ->
        let csv = rows text and physical = lines_of (S.of_string text) in
        List.for_all
          (fun buf_size ->
            rows_of (chunked ~buf_size text) = csv
            && lines_of (chunked ~buf_size text) = physical)
          (List.init 24 (fun k -> k + 1)));
    (* A row's slices agree with its strings: trimming takes off what
       [String.trim] does, and the gap test on a slice is [Rows.blank]
       of the trimmed string. *)
    QCheck.Test.make ~count:300 ~name:"row slices trim and test blank like strings"
      QCheck.(
        make ~print:(Printf.sprintf "%S")
          Gen.(
            string_size
              ~gen:(oneofl [ ' '; '\t'; '\012'; '\r'; '\n'; '?'; 'a'; ','; '"' ])
              (0 -- 120)))
      (fun text ->
        S.fold_rows (S.of_string text) ~init:true ~f:(fun ok ~line:_ -> function
          | Error _ -> ok
          | Ok row ->
            let b = S.text row in
            ok
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun k cell ->
                      let lo = S.trimmed_start row k and hi = S.trimmed_end row k in
                      let t = String.trim cell in
                      lo <= hi
                      && Bytes.sub_string b lo (hi - lo) = t
                      && S.trimmed row k = t
                      && Pn_data.Rows.blank_slice b lo hi = Pn_data.Rows.blank t)
                    (S.strings row))));
    QCheck.Test.make ~count:300 ~name:"quoted fields round-trip at any buffer size"
      QCheck.(
        make
          Gen.(
            pair
              (list_size (1 -- 8) (list_size (1 -- 4) field_gen))
              (1 -- 16)))
      (fun (table, buf_size) ->
        (* Normalize: trailing CR of a field would merge with the row
           boundary only for unquoted fields; quoting protects it. *)
        let text =
          String.concat ""
            (List.map
               (fun row -> String.concat "," (List.map quote row) ^ "\n")
               table)
        in
        let path = Filename.temp_file "pnrule_stream_q" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            In_channel.with_open_bin path (fun ic ->
                let got =
                  List.filter_map
                    (fun (_, r) -> Result.to_option r)
                    (rows_of (S.of_channel ~buf_size ic))
                in
                (* Rows whose every field is empty/whitespace-free quoted
                   content still survive: quoting marks them non-blank. *)
                got = List.map Array.of_list table)));
  ]

let suite =
  [
    Alcotest.test_case "basic rows" `Quick test_basic;
    Alcotest.test_case "crlf handling" `Quick test_crlf;
    Alcotest.test_case "quoting" `Quick test_quoting;
    Alcotest.test_case "row errors + resync" `Quick test_errors;
    Alcotest.test_case "blank rows" `Quick test_blank_rows;
    Alcotest.test_case "buffer boundaries" `Quick test_buffer_boundaries;
    Alcotest.test_case "fold_lines" `Quick test_fold_lines;
    Alcotest.test_case "golden decode of arbitrary bytes" `Quick test_golden_digests;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
