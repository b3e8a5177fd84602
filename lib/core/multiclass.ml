type t = {
  models : (int * Model.t) array;
  fallback : int;
  classes : string array;
}

let train ?(params = Params.default) ?(params_for = fun _ -> None) ds =
  let counts = Pn_data.Dataset.class_counts ds in
  let order =
    (* Rarest first: rare classes get first claim on ties, mirroring the
       rare-class priority of the binary method. *)
    List.sort
      (fun a b -> Float.compare counts.(a) counts.(b))
      (List.filter
         (fun c -> counts.(c) > 0.0)
         (Array.to_list (Pn_util.Arr.range (Array.length counts))))
  in
  let models =
    List.map
      (fun cls ->
        let params = Option.value (params_for cls) ~default:params in
        (cls, Learner.train ~params ds ~target:cls))
      order
  in
  let fallback = ref 0 in
  Array.iteri (fun c w -> if w > counts.(!fallback) then fallback := c) counts;
  { models = Array.of_list models; fallback = !fallback; classes = ds.Pn_data.Dataset.classes }

let scores t ds i =
  let out = Array.make (Array.length t.classes) 0.0 in
  Array.iter (fun (cls, model) -> out.(cls) <- Model.score model ds i) t.models;
  out

let predict t ds i =
  let best_cls = ref t.fallback and best_score = ref 0.0 in
  (* Models are stored rarest-first, so a rare class wins exact ties. *)
  Array.iter
    (fun (cls, model) ->
      let s = Model.score model ds i in
      if s > !best_score then begin
        best_cls := cls;
        best_score := s
      end)
    t.models;
  !best_cls

(* Batch one-vs-rest prediction: every per-class model's P- and N-lists
   compile into ONE program, so a column tested across class models
   (attack signatures frequently share service/protocol tests) is keyed
   once per record for the whole ensemble. The per-record [predict]
   above stays the oracle. *)
let predict_all ?pool t ds =
  let lists =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (_, m) ->
              [|
                m.Model.p_rules.Pn_rules.Rule_list.rules;
                m.Model.n_rules.Pn_rules.Rule_list.rules;
              |])
            t.models))
  in
  let fm = Pn_rules.Compiled.eval ?pool (Pn_rules.Compiled.compile lists) ds in
  Array.init (Pn_data.Dataset.n_records ds) (fun i ->
      let best_cls = ref t.fallback and best_score = ref 0.0 in
      (* Same rarest-first tie rule as [predict]. *)
      Array.iteri
        (fun k (cls, model) ->
          let p = fm.(2 * k).(i) and n = fm.((2 * k) + 1).(i) in
          let s =
            if p < 0 then 0.0
            else
              model.Model.scores.(p).(if n < 0 then
                                        Pn_rules.Rule_list.length
                                          model.Model.n_rules
                                      else n)
          in
          if s > !best_score then begin
            best_cls := cls;
            best_score := s
          end)
        t.models;
      !best_cls)

let accuracy ?pool t ds =
  let predicted = predict_all ?pool t ds in
  let hit = ref 0.0 and total = ref 0.0 in
  for i = 0 to Pn_data.Dataset.n_records ds - 1 do
    let w = Pn_data.Dataset.weight ds i in
    total := !total +. w;
    if predicted.(i) = Pn_data.Dataset.label ds i then hit := !hit +. w
  done;
  if !total <= 0.0 then 0.0 else !hit /. !total

let confusion ?pool t ds ~target =
  let predicted = predict_all ?pool t ds in
  let acc = ref Pn_metrics.Confusion.zero in
  for i = 0 to Pn_data.Dataset.n_records ds - 1 do
    acc :=
      Pn_metrics.Confusion.add !acc
        ~actual:(Pn_data.Dataset.label ds i = target)
        ~predicted:(predicted.(i) = target)
        ~weight:(Pn_data.Dataset.weight ds i)
  done;
  !acc
