exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Names (class names, attribute names, categorical values) are written
   as OCaml string literals so embedded spaces and quotes survive. *)
let quote s = Printf.sprintf "%S" s

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let write_condition buf c =
  match c with
  | Pn_rules.Condition.Cat_eq { col; value } ->
    Buffer.add_string buf (Printf.sprintf "    cat %d %d\n" col value)
  | Pn_rules.Condition.Num_le { col; threshold } ->
    Buffer.add_string buf (Printf.sprintf "    le %d %h\n" col threshold)
  | Pn_rules.Condition.Num_ge { col; threshold } ->
    Buffer.add_string buf (Printf.sprintf "    ge %d %h\n" col threshold)
  | Pn_rules.Condition.Num_range { col; lo; hi } ->
    Buffer.add_string buf (Printf.sprintf "    range %d %h %h\n" col lo hi)

let write_rules buf label rules =
  Buffer.add_string buf (Printf.sprintf "%s %d\n" label (Pn_rules.Rule_list.length rules));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  rule %d\n" (Pn_rules.Rule.n_conditions r));
      List.iter (write_condition buf) r.Pn_rules.Rule.conditions)
    (Pn_rules.Rule_list.to_list rules)

let write_schema buf ~target ~classes ~attrs =
  Buffer.add_string buf (Printf.sprintf "target %d\n" target);
  Buffer.add_string buf (Printf.sprintf "classes %d\n" (Array.length classes));
  Array.iter (fun c -> Buffer.add_string buf ("  " ^ quote c ^ "\n")) classes;
  Buffer.add_string buf (Printf.sprintf "attrs %d\n" (Array.length attrs));
  Array.iter
    (fun (a : Pn_data.Attribute.t) ->
      match a.kind with
      | Pn_data.Attribute.Numeric ->
        Buffer.add_string buf ("  num " ^ quote a.name ^ "\n")
      | Pn_data.Attribute.Categorical values ->
        Buffer.add_string buf
          (Printf.sprintf "  cat %s %d%s\n" (quote a.name) (Array.length values)
             (Array.fold_left (fun acc v -> acc ^ " " ^ quote v) "" values)))
    attrs

(* The body of a single model: the schema, the decision parameters,
   both rule lists and the ScoreMatrix. A v2 file is this body under
   its header line. *)
let write_single_body buf (m : Model.t) =
  write_schema buf ~target:m.Model.target ~classes:m.Model.classes
    ~attrs:m.Model.attrs;
  let p = m.Model.params in
  Buffer.add_string buf
    (Printf.sprintf "decision %h %b\n" p.Params.score_threshold p.Params.use_scoring);
  write_rules buf "p_rules" m.Model.p_rules;
  write_rules buf "n_rules" m.Model.n_rules;
  let rows = Array.length m.Model.scores in
  let cols = if rows = 0 then 0 else Array.length m.Model.scores.(0) in
  Buffer.add_string buf (Printf.sprintf "scores %d %d\n" rows cols);
  Array.iter
    (fun row ->
      Buffer.add_string buf " ";
      Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf " %h" s)) row;
      Buffer.add_char buf '\n')
    m.Model.scores

(* The body of a boosted ensemble: the schema, the decision threshold,
   the bias, and one weighted rule per member. A v3 file is this body
   under its header and kind lines. *)
let write_boosted_body buf (e : Ensemble.t) =
  write_schema buf ~target:e.Ensemble.target ~classes:e.Ensemble.classes
    ~attrs:e.Ensemble.attrs;
  Buffer.add_string buf (Printf.sprintf "decision %h\n" e.Ensemble.threshold);
  Buffer.add_string buf (Printf.sprintf "bias %h\n" e.Ensemble.bias);
  Buffer.add_string buf
    (Printf.sprintf "members %d\n" (Array.length e.Ensemble.members));
  Array.iter
    (fun (mb : Ensemble.member) ->
      Buffer.add_string buf
        (Printf.sprintf "  member %h %d\n" mb.Ensemble.weight
           (Pn_rules.Rule.n_conditions mb.Ensemble.rule));
      List.iter (write_condition buf) mb.Ensemble.rule.Pn_rules.Rule.conditions)
    e.Ensemble.members

let write_expectations buf (e : Saved.expectations) =
  Buffer.add_string buf
    (Printf.sprintf "expectations %d\n" (Array.length e.Saved.rates));
  Array.iteri
    (fun k rate ->
      Buffer.add_string buf
        (Printf.sprintf "  exp %h %h\n" rate e.Saved.precisions.(k)))
    e.Saved.rates;
  Buffer.add_string buf (Printf.sprintf "support %d\n" e.Saved.support)

(* v4: the kind line, the v2 or v3 body, the optional expectations
   block, and a CRC-32 footer over every byte above it. [of_string]
   refuses a file whose body and footer disagree, which is what lets
   hot reload tell a torn or bit-flipped file from a healthy one. *)
let to_string ?expectations sm =
  Option.iter
    (fun (exp : Saved.expectations) ->
      if Array.length exp.Saved.rates <> Array.length exp.Saved.precisions then
        invalid_arg "Serialize.to_string: rates/precisions lengths differ";
      if Array.length exp.Saved.rates <> Saved.n_monitored sm then
        invalid_arg
          "Serialize.to_string: expectations do not match the model's \
           monitored rules")
    expectations;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "pnrule-model v4\nkind %s\n" (Saved.kind sm));
  (match sm with
  | Saved.Single m -> write_single_body buf m
  | Saved.Boosted e -> write_boosted_body buf e);
  Option.iter (write_expectations buf) expectations;
  Buffer.add_string buf
    (Printf.sprintf "crc %08x\n" (Pn_util.Crc32.string (Buffer.contents buf)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)
(* ------------------------------------------------------------------ *)

(* A tiny token stream over whitespace-separated words, where quoted
   OCaml string literals count as single tokens, read through a
   cursor. *)
type stream = { tokens : string array; mutable pos : int }

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '"' then begin
      (* Scan to the closing unescaped quote. A backslash escapes the
         character after it, so "a\\" (the two-character value [a\])
         closes at its final quote — checking only the preceding
         character would misread the escaped backslash as escaping the
         quote and overrun the literal. *)
      let j = ref (!i + 1) in
      let closed = ref false in
      while (not !closed) && !j < n do
        if s.[!j] = '\\' then j := !j + 2
        else if s.[!j] = '"' then closed := true
        else incr j
      done;
      if not !closed then fail "unterminated string literal";
      let literal = String.sub s !i (!j - !i + 1) in
      let value = Scanf.sscanf literal "%S" Fun.id in
      tokens := value :: !tokens;
      i := !j + 1
    end
    else begin
      let j = ref !i in
      while !j < n && s.[!j] <> ' ' && s.[!j] <> '\n' && s.[!j] <> '\t' && s.[!j] <> '\r' do
        incr j
      done;
      tokens := String.sub s !i (!j - !i) :: !tokens;
      i := !j
    end
  done;
  { tokens = Array.of_list (List.rev !tokens); pos = 0 }

let remaining st = Array.length st.tokens - st.pos

let next st =
  if remaining st = 0 then fail "unexpected end of input";
  let t = st.tokens.(st.pos) in
  st.pos <- st.pos + 1;
  t

let peek_is st word = remaining st > 0 && String.equal st.tokens.(st.pos) word

let expect st word =
  let t = next st in
  if not (String.equal t word) then fail "expected %S, found %S" word t

let int_tok st =
  let t = next st in
  match int_of_string_opt t with
  | Some v -> v
  | None -> fail "expected integer, found %S" t

let float_tok st =
  let t = next st in
  match float_of_string_opt t with
  | Some v -> v
  | None -> fail "expected float, found %S" t

let bool_tok st =
  let t = next st in
  match bool_of_string_opt t with
  | Some v -> v
  | None -> fail "expected bool, found %S" t

(* An element count from untrusted input: it must not exceed the tokens
   actually present, or a corrupted count would drive a huge allocation
   before the parse fails. *)
let count_tok st ~what =
  let v = int_tok st in
  if v < 0 || v > remaining st then fail "implausible %s count %d" what v;
  v

(* A condition must fit the schema read above it: scoring indexes the
   column and, for [cat], the dictionary without further checks. *)
let read_condition st (attrs : Pn_data.Attribute.t array) =
  let kind = next st in
  if not (List.mem kind [ "cat"; "le"; "ge"; "range" ]) then
    fail "unknown condition kind %S" kind;
  let col = int_tok st in
  if col < 0 || col >= Array.length attrs then
    fail "condition on column %d of %d" col (Array.length attrs);
  match (kind, attrs.(col).kind) with
  | "cat", Pn_data.Attribute.Categorical values ->
    let value = int_tok st in
    if value < 0 || value >= Array.length values then
      fail "categorical code %d of %d on column %d" value (Array.length values)
        col;
    Pn_rules.Condition.Cat_eq { col; value }
  | "le", Pn_data.Attribute.Numeric ->
    Pn_rules.Condition.Num_le { col; threshold = float_tok st }
  | "ge", Pn_data.Attribute.Numeric ->
    Pn_rules.Condition.Num_ge { col; threshold = float_tok st }
  | "range", Pn_data.Attribute.Numeric ->
    let lo = float_tok st in
    let hi = float_tok st in
    Pn_rules.Condition.Num_range { col; lo; hi }
  | _ -> fail "%s condition does not fit the kind of column %d" kind col

let read_conditions st attrs =
  let k = count_tok st ~what:"condition" in
  Pn_rules.Rule.of_conditions (List.init k (fun _ -> read_condition st attrs))

let read_rules st attrs label =
  expect st label;
  let count = count_tok st ~what:"rule" in
  let rules =
    List.init count (fun _ ->
        expect st "rule";
        read_conditions st attrs)
  in
  Pn_rules.Rule_list.of_list rules

(* Every file ends with "crc XXXXXXXX\n" over every byte above it,
   exactly as the writer prints it. Checked on the raw bytes, before
   tokenization: any flip or truncation anywhere in the file, including
   inside string literals the tokenizer would otherwise choke on,
   surfaces as this one clean error. *)
let verify_crc s =
  let n = String.length s in
  if n < 2 || s.[n - 1] <> '\n' then fail "missing checksum footer";
  let body_end =
    match String.rindex_from_opt s (n - 2) '\n' with Some i -> i + 1 | None -> 0
  in
  let footer = String.sub s body_end (n - body_end) in
  let expected =
    Printf.sprintf "crc %08x\n" (Pn_util.Crc32.string ~len:body_end s)
  in
  if not (String.equal footer expected) then
    fail "checksum footer %S does not match the content's %S"
      (String.trim footer) (String.trim expected)

let read_schema st =
  expect st "target";
  let target = int_tok st in
  expect st "classes";
  let n_classes = count_tok st ~what:"class" in
  let classes = Array.init n_classes (fun _ -> next st) in
  expect st "attrs";
  let n_attrs = count_tok st ~what:"attribute" in
  let attrs =
    Array.init n_attrs (fun _ ->
        match next st with
        | "num" -> Pn_data.Attribute.numeric (next st)
        | "cat" ->
          let name = next st in
          let arity = count_tok st ~what:"value" in
          Pn_data.Attribute.categorical name (Array.init arity (fun _ -> next st))
        | other -> fail "unknown attribute kind %S" other)
  in
  if target < 0 || target >= n_classes then fail "target class out of range";
  (target, classes, attrs)

let read_single st =
  let target, classes, attrs = read_schema st in
  expect st "decision";
  let score_threshold = float_tok st in
  let use_scoring = bool_tok st in
  let p_rules = read_rules st attrs "p_rules" in
  let n_rules = read_rules st attrs "n_rules" in
  expect st "scores";
  let rows = count_tok st ~what:"score row" in
  let cols = count_tok st ~what:"score column" in
  let scores = Array.init rows (fun _ -> Array.init cols (fun _ -> float_tok st)) in
  if rows > 0 && cols <> Pn_rules.Rule_list.length n_rules + 1 then
    fail "score matrix width %d does not match %d N-rules" cols
      (Pn_rules.Rule_list.length n_rules);
  if rows <> Pn_rules.Rule_list.length p_rules then
    fail "score matrix height %d does not match %d P-rules" rows
      (Pn_rules.Rule_list.length p_rules);
  Model.make ~target ~classes ~attrs ~p_rules ~n_rules ~scores
    ~params:{ Params.default with score_threshold; use_scoring }

let read_boosted st =
  let target, classes, attrs = read_schema st in
  expect st "decision";
  let threshold = float_tok st in
  expect st "bias";
  let bias = float_tok st in
  expect st "members";
  let count = count_tok st ~what:"member" in
  let members =
    Array.init count (fun _ ->
        expect st "member";
        let weight = float_tok st in
        let rule = read_conditions st attrs in
        { Ensemble.rule; weight })
  in
  Ensemble.make ~target ~classes ~attrs ~members ~bias ~threshold

let read_expectations st ~monitored =
  expect st "expectations";
  let count = count_tok st ~what:"expectation" in
  if count <> monitored then
    fail "expectations block covers %d rules, model has %d" count monitored;
  let rates = Array.make count 0.0 in
  let precisions = Array.make count 0.0 in
  for k = 0 to count - 1 do
    expect st "exp";
    rates.(k) <- float_tok st;
    precisions.(k) <- float_tok st
  done;
  expect st "support";
  let support = int_tok st in
  if support < 0 then fail "negative expectations support %d" support;
  { Saved.rates; precisions; support }

(* v2 is a single model, v3 a boosted one; v4 names its kind and may
   carry an expectations block. All three end with the footer. *)
let of_string s =
  let parse () =
    verify_crc s;
    let st = tokenize s in
    expect st "pnrule-model";
    let version = next st in
    let sm =
      match version with
      | "v2" -> Saved.Single (read_single st)
      | "v3" ->
        expect st "kind";
        expect st "boosted";
        Saved.Boosted (read_boosted st)
      | "v4" -> (
        expect st "kind";
        match next st with
        | "pnrule" -> Saved.Single (read_single st)
        | "boosted" -> Saved.Boosted (read_boosted st)
        | other -> fail "unknown model kind %S" other)
      | other -> fail "unsupported format version %S" other
    in
    let expectations =
      if version = "v4" && peek_is st "expectations" then
        Some (read_expectations st ~monitored:(Saved.n_monitored sm))
      else None
    in
    expect st "crc";
    ignore (next st);
    (sm, expectations)
  in
  (* Every reader failure mode must come out as [Corrupt]: callers (hot
     reload, the CLI) decide "keep the old model" on that one exception,
     and a stray [Scan_failure] would instead kill the worker. *)
  try parse () with
  | Scanf.Scan_failure _ | Failure _ | Invalid_argument _ | Not_found
  | End_of_file ->
    fail "malformed model text"

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let save ?(fault_point = "serialize.write") ?expectations sm path =
  let data = to_string ?expectations sm in
  Pn_util.Atomic_file.write ~fault_point path (fun sink -> sink data)

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

let load_saved path = fst (load path)
