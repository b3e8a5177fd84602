type column = Num of float array | Cat of int array

type t = {
  attrs : Attribute.t array;
  columns : column array;
  labels : int array;
  classes : string array;
  weights : float array;
  n : int;
  sort_cache : Sort_cache.t;
}

let column_length = function
  | Num a -> Array.length a
  | Cat a -> Array.length a

(* With [exact], every array has exactly [n] cells; otherwise at least
   [n], and only the first [n] are checked. *)
let validate ~attrs ~columns ~labels ~classes ~weights ~n ~exact =
  let fits len = if exact then len = n else len >= n in
  if Array.length attrs <> Array.length columns then
    invalid_arg "Dataset.create: schema/column count mismatch";
  Array.iteri
    (fun j col ->
      if not (fits (column_length col)) then
        invalid_arg
          (Printf.sprintf "Dataset.create: column %d has length %d, expected %s%d"
             j (column_length col) (if exact then "" else "at least ") n);
      match (attrs.(j).Attribute.kind, col) with
      | Attribute.Numeric, Num _ -> ()
      | Attribute.Categorical values, Cat codes ->
        let arity = Array.length values in
        for i = 0 to n - 1 do
          let v = codes.(i) in
          if v < 0 || v >= arity then
            invalid_arg
              (Printf.sprintf
                 "Dataset.create: column %d code %d out of range [0,%d)" j v
                 arity)
        done
      | Attribute.Numeric, Cat _ | Attribute.Categorical _, Num _ ->
        invalid_arg (Printf.sprintf "Dataset.create: column %d kind mismatch" j))
    columns;
  if not (fits (Array.length labels)) then invalid_arg "Dataset.create: labels length";
  if not (fits (Array.length weights)) then
    invalid_arg "Dataset.create: weights length";
  let n_classes = Array.length classes in
  for i = 0 to n - 1 do
    let c = labels.(i) in
    if c < 0 || c >= n_classes then
      invalid_arg "Dataset.create: label out of class range"
  done;
  for i = 0 to n - 1 do
    if weights.(i) < 0.0 then invalid_arg "Dataset.create: negative weight"
  done

let create ?weights ?n ~attrs ~columns ~labels ~classes () =
  let exact = Option.is_none n in
  let n = match n with Some n -> n | None -> Array.length labels in
  if n < 0 then invalid_arg "Dataset.create: n";
  let weights =
    match weights with
    | Some w -> w
    | None -> Array.make n 1.0
  in
  validate ~attrs ~columns ~labels ~classes ~weights ~n ~exact;
  let sort_cache = Sort_cache.create (Array.length columns) in
  { attrs; columns; labels; classes; weights; n; sort_cache }

(* The first [t.n] cells of a dataset array: the array itself unless the
   dataset was built over longer buffers. *)
let prefix t a = if Array.length a = t.n then a else Array.sub a 0 t.n

let n_records t = t.n

let n_attrs t = Array.length t.attrs

let n_classes t = Array.length t.classes

let num_value t ~col i =
  match t.columns.(col) with
  | Num a -> a.(i)
  | Cat _ -> invalid_arg "Dataset.num_value: categorical column"

let cat_value t ~col i =
  match t.columns.(col) with
  | Cat a -> a.(i)
  | Num _ -> invalid_arg "Dataset.cat_value: numeric column"

let sort_entry t ~col =
  match t.columns.(col) with
  | Num a -> (
    match Sort_cache.peek t.sort_cache ~col with
    | Some e -> e
    | None -> Sort_cache.entry t.sort_cache ~col (prefix t a))
  | Cat _ -> invalid_arg "Dataset.sort_entry: categorical column"

let sort_entry_opt t ~col =
  match t.columns.(col) with
  | Num _ -> Sort_cache.peek t.sort_cache ~col
  | Cat _ -> None

let sorted_order t ~col = (sort_entry t ~col).Sort_cache.order

let sorted_rank t ~col = (sort_entry t ~col).Sort_cache.rank

let n_distinct_num t ~col = (sort_entry t ~col).Sort_cache.n_distinct

let label t i = t.labels.(i)

let weight t i = t.weights.(i)

let class_index t name =
  let rec loop i =
    if i >= Array.length t.classes then raise Not_found
    else if String.equal t.classes.(i) name then i
    else loop (i + 1)
  in
  loop 0

let class_counts t =
  let counts = Array.make (Array.length t.classes) 0.0 in
  for i = 0 to t.n - 1 do
    counts.(t.labels.(i)) <- counts.(t.labels.(i)) +. t.weights.(i)
  done;
  counts

let class_weight t c = (class_counts t).(c)

let total_weight t = Pn_util.Arr.sum_floats (prefix t t.weights)

let with_weights t w =
  if Array.length w <> t.n then invalid_arg "Dataset.with_weights: length";
  { t with weights = w }

let stratify t ~target =
  let target_count = ref 0 in
  let other_weight = ref 0.0 in
  for i = 0 to t.n - 1 do
    if t.labels.(i) = target then incr target_count
    else other_weight := !other_weight +. t.weights.(i)
  done;
  if !target_count = 0 then t
  else begin
    let boosted = !other_weight /. float_of_int !target_count in
    let w =
      Array.init t.n (fun i ->
          if t.labels.(i) = target then boosted else t.weights.(i))
    in
    { t with weights = w }
  end

let subset t indices =
  let pick_col = function
    | Num a -> Num (Array.map (fun i -> a.(i)) indices)
    | Cat a -> Cat (Array.map (fun i -> a.(i)) indices)
  in
  {
    attrs = t.attrs;
    columns = Array.map pick_col t.columns;
    labels = Array.map (fun i -> t.labels.(i)) indices;
    classes = t.classes;
    weights = Array.map (fun i -> t.weights.(i)) indices;
    n = Array.length indices;
    sort_cache = Sort_cache.create (Array.length t.columns);
  }

let same_schema a b =
  Array.length a.attrs = Array.length b.attrs
  && Array.for_all2
       (fun (x : Attribute.t) (y : Attribute.t) ->
         String.equal x.name y.name && x.kind = y.kind)
       a.attrs b.attrs
  && a.classes = b.classes

let append a b =
  if not (same_schema a b) then invalid_arg "Dataset.append: schema mismatch";
  let join_col x y =
    match (x, y) with
    | Num u, Num v -> Num (Array.append (prefix a u) (prefix b v))
    | Cat u, Cat v -> Cat (Array.append (prefix a u) (prefix b v))
    | Num _, Cat _ | Cat _, Num _ -> assert false
  in
  {
    attrs = a.attrs;
    columns = Array.map2 join_col a.columns b.columns;
    labels = Array.append (prefix a a.labels) (prefix b b.labels);
    classes = a.classes;
    weights = Array.append (prefix a a.weights) (prefix b b.weights);
    n = a.n + b.n;
    sort_cache = Sort_cache.create (Array.length a.columns);
  }

let binary_labels t ~target = Array.init t.n (fun i -> t.labels.(i) = target)

let equal a b =
  same_schema a b && a.n = b.n
  && prefix a a.labels = prefix b b.labels
  && prefix a a.weights = prefix b b.weights
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Num u, Num v ->
           (* nan-tolerant cell comparison: a column is the same when
              every cell has the same bit-level meaning *)
           Array.for_all2
             (fun p q -> Float.compare p q = 0)
             (prefix a u) (prefix b v)
         | Cat u, Cat v -> prefix a u = prefix b v
         | Num _, Cat _ | Cat _, Num _ -> false)
       a.columns b.columns

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>%d records, %d attributes@," t.n (n_attrs t);
  Array.iter (fun a -> Format.fprintf ppf "  %a@," Attribute.pp a) t.attrs;
  let counts = class_counts t in
  Array.iteri
    (fun c name -> Format.fprintf ppf "  class %-12s weight %.1f@," name counts.(c))
    t.classes;
  Format.fprintf ppf "@]"
