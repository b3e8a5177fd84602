type t = { rules : Rule.t array }

let of_list rules = { rules = Array.of_list rules }

let of_array rules = { rules }

let length t = Array.length t.rules

let get t i = t.rules.(i)

let to_list t = Array.to_list t.rules

let first_match ds t i =
  let n = Array.length t.rules in
  let rec loop k =
    if k >= n then None else if Rule.matches ds t.rules.(k) i then Some k else loop (k + 1)
  in
  loop 0

let any_match ds t i = Option.is_some (first_match ds t i)

let covered ds t =
  (* One compiled pass instead of re-running any_match (every
     condition of every rule) per record. *)
  let fm = Compiled.first_match_all t.rules ds in
  let n_hits = ref 0 in
  Array.iter (fun m -> if m >= 0 then incr n_hits) fm;
  let hits = Array.make !n_hits 0 in
  let k = ref 0 in
  Array.iteri
    (fun i m ->
      if m >= 0 then begin
        hits.(!k) <- i;
        incr k
      end)
    fm;
  Pn_data.View.of_indices ds hits

let total_conditions t =
  Array.fold_left (fun acc r -> acc + Rule.n_conditions r) 0 t.rules

let pp attrs ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun k r -> Format.fprintf ppf "%2d. %a@," k (Rule.pp attrs) r)
    t.rules;
  Format.fprintf ppf "@]"
