type t = {
  target : int;
  classes : string array;
  attrs : Pn_data.Attribute.t array;
  p_rules : Pn_rules.Rule_list.t;
  n_rules : Pn_rules.Rule_list.t;
  scores : float array array;
  params : Params.t;
  program : Pn_rules.Compiled.t;
}

let make ~target ~classes ~attrs ~p_rules ~n_rules ~scores ~params =
  {
    target;
    classes;
    attrs;
    p_rules;
    n_rules;
    scores;
    params;
    program =
      Pn_rules.Compiled.compile
        [| p_rules.Pn_rules.Rule_list.rules; n_rules.Pn_rules.Rule_list.rules |];
  }

let score t ds i =
  match Pn_rules.Rule_list.first_match ds t.p_rules i with
  | None -> 0.0
  | Some p ->
    let col =
      match Pn_rules.Rule_list.first_match ds t.n_rules i with
      | None -> Pn_rules.Rule_list.length t.n_rules
      | Some n -> n
    in
    t.scores.(p).(col)

let predict t ds i =
  if t.params.Params.use_scoring then score t ds i > t.params.Params.score_threshold
  else
    Pn_rules.Rule_list.any_match ds t.p_rules i
    && not (Pn_rules.Rule_list.any_match ds t.n_rules i)

(* Batch serving goes through the compiled engine: the model's program
   over both rule lists, built once by [make], yields first-match
   arrays, then the same ScoreMatrix lookup as the per-record reference
   above — which stays the oracle the equivalence tests compare
   against. *)

(* (first P-rule, first N-rule) per record, -1 for no match. *)
let first_matches ?pool ?scratch t ds =
  let fm = Pn_rules.Compiled.eval ?pool ?scratch t.program ds in
  (fm.(0), fm.(1))

let score_of_matches t ~p ~n =
  if p < 0 then 0.0
  else t.scores.(p).(if n < 0 then Pn_rules.Rule_list.length t.n_rules else n)

let score_all ?pool t ds =
  let pm, nm = first_matches ?pool t ds in
  let n = Pn_data.Dataset.n_records ds in
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set out i
      (score_of_matches t ~p:(Array.unsafe_get pm i) ~n:(Array.unsafe_get nm i))
  done;
  out

let predict_all ?pool t ds =
  let pm, nm = first_matches ?pool t ds in
  let n = Pn_data.Dataset.n_records ds in
  let out = Array.make n false in
  if t.params.Params.use_scoring then begin
    let thr = t.params.Params.score_threshold in
    for i = 0 to n - 1 do
      Array.unsafe_set out i
        (score_of_matches t ~p:(Array.unsafe_get pm i) ~n:(Array.unsafe_get nm i)
        > thr)
    done
  end
  else
    for i = 0 to n - 1 do
      Array.unsafe_set out i
        (Array.unsafe_get pm i >= 0 && Array.unsafe_get nm i < 0)
    done;
  out

let evaluate ?pool t ds =
  let predicted = predict_all ?pool t ds in
  let acc = ref Pn_metrics.Confusion.zero in
  for i = 0 to Pn_data.Dataset.n_records ds - 1 do
    acc :=
      Pn_metrics.Confusion.add !acc
        ~actual:(Pn_data.Dataset.label ds i = t.target)
        ~predicted:predicted.(i)
        ~weight:(Pn_data.Dataset.weight ds i)
  done;
  !acc

let rule_counts t =
  (Pn_rules.Rule_list.length t.p_rules, Pn_rules.Rule_list.length t.n_rules)

let pp ppf t =
  let np, nn = rule_counts t in
  Format.fprintf ppf "@[<v>PNrule model for class %S (%d P-rules, %d N-rules)@,"
    t.classes.(t.target) np nn;
  Format.fprintf ppf "P-rules:@,%a" (Pn_rules.Rule_list.pp t.attrs) t.p_rules;
  Format.fprintf ppf "N-rules:@,%a" (Pn_rules.Rule_list.pp t.attrs) t.n_rules;
  Format.fprintf ppf "ScoreMatrix (rows: P-rules; last column: no N-rule):@,";
  Array.iteri
    (fun p row ->
      Format.fprintf ppf "  P%-2d" p;
      Array.iter (fun s -> Format.fprintf ppf " %5.2f" s) row;
      ignore p;
      Format.pp_print_cut ppf ())
    t.scores;
  Format.fprintf ppf "@]"
