exception Skipped

let blank_slice text lo hi = lo = hi || (hi = lo + 1 && Bytes.get text lo = '?')
let blank cell = blank_slice (Bytes.unsafe_of_string cell) 0 (String.length cell)

type mode = Load | Serve of Pn_util.Scratch.t

type t = {
  attrs : Attribute.t array;
  policy : Ingest_report.policy;
  where : string;
  error : string -> exn;
  mode : mode;
  report : Ingest_report.t;
  mutable cap : int;
  mutable n : int;
  mutable columns : Dataset.column array;
  mutable masks : bool array option array;
  mutable outside : string array option array;
  mutable labels : int array;
  (* Attributes the row being decoded left missing, marked in the masks
     only once the row is kept. *)
  pending : int array;
  mutable n_pending : int;
}

let k_num = Pn_util.Scratch.key ()
let k_cat = Pn_util.Scratch.key ()
let k_mask = Pn_util.Scratch.key ()
let k_labels = Pn_util.Scratch.key ()
let k_keep = Pn_util.Scratch.key ()

(* Stores of at least [cap] cells: fresh for a load, the worker's own
   when serving. *)
let floats t ~at cap =
  match t.mode with
  | Load -> Array.make cap 0.0
  | Serve s -> Pn_util.Scratch.floats s k_num ~at cap

let ints t k ~at cap =
  match t.mode with
  | Load -> Array.make cap 0
  | Serve s -> Pn_util.Scratch.ints s k ~at cap

let bools t k ~at cap =
  match t.mode with
  | Load -> Array.make cap false
  | Serve s -> Pn_util.Scratch.bools s k ~at cap

(* Room for [cap] rows, the first [t.n] carried over. A borrowed store
   may be longer than asked, so the room is the shortest store's. *)
let resize t cap =
  let n = t.n in
  let room = ref max_int in
  let grown old fresh =
    Array.blit old 0 fresh 0 n;
    room := min !room (Array.length fresh);
    fresh
  in
  t.columns <-
    Array.mapi
      (fun a -> function
        | Dataset.Num old -> Dataset.Num (grown old (floats t ~at:a cap))
        | Dataset.Cat old -> Dataset.Cat (grown old (ints t k_cat ~at:a cap)))
      t.columns;
  t.labels <- grown t.labels (ints t k_labels ~at:0 cap);
  t.cap <- !room;
  t.masks <-
    Array.mapi
      (fun a -> function
        | None -> None
        | Some old ->
          let m = grown old (bools t k_mask ~at:a t.cap) in
          Array.fill m n (t.cap - n) false;
          Some m)
      t.masks

let create ~policy ~where ~error ~capacity mode attrs =
  let n_attrs = Array.length attrs in
  let t =
    {
      attrs;
      policy;
      where;
      error;
      mode;
      report = Ingest_report.create ();
      cap = 0;
      n = 0;
      columns =
        Array.map
          (fun (a : Attribute.t) ->
            if Attribute.is_numeric a then Dataset.Num [||] else Dataset.Cat [||])
          attrs;
      masks = Array.make n_attrs None;
      outside = Array.make n_attrs None;
      labels = [||];
      pending = Array.make n_attrs 0;
      n_pending = 0;
    }
  in
  if capacity > 0 then resize t capacity;
  t

let report t = t.report
let length t = t.n
let columns t = t.columns
let labels t = t.labels

(* Column [a]'s mask, made (and cleared) at its first gap. *)
let mask t a =
  match t.masks.(a) with
  | Some m -> m
  | None ->
    let m = bools t k_mask ~at:a t.cap in
    Array.fill m 0 t.cap false;
    t.masks.(a) <- Some m;
    m

(* ------------------------------------------------------------------ *)
(* The decision                                                         *)
(* ------------------------------------------------------------------ *)

let name t a = t.attrs.(a).Attribute.name

let reject t ~line reason =
  t.n_pending <- 0;
  match t.policy with
  | Ingest_report.Strict ->
    raise (t.error (Printf.sprintf "%s %d: %s" t.where line reason))
  | Ingest_report.Skip | Ingest_report.Impute ->
    Ingest_report.row_read t.report;
    Ingest_report.row_skipped t.report ~line reason;
    raise_notrace Skipped


let no_label t ~line = reject t ~line "missing class label"

let missing_reason t a = Printf.sprintf "missing value in column %S" (name t a)

let outside_reason t a value =
  match t.mode with
  | Load -> Printf.sprintf "value %S not in the nominal set of %S" value (name t a)
  | Serve _ ->
    Printf.sprintf "value %S not known to the model in column %S" value (name t a)

(* A gap: Impute fills it once the row is kept, the other policies
   drop the row. *)
let gap t ~line a reason =
  match t.policy with
  | Ingest_report.Impute ->
    t.pending.(t.n_pending) <- a;
    t.n_pending <- t.n_pending + 1
  | Ingest_report.Strict | Ingest_report.Skip -> reject t ~line (reason t a)

let missing t ~line a = gap t ~line a missing_reason

let outside t ~line a value =
  gap t ~line a (fun t a -> outside_reason t a value)

let row t =
  if t.n = t.cap then resize t (max 16 (2 * t.cap));
  t.n

let keep t =
  if t.n_pending > 0 then begin
    (* A kind-inference scan has no room and marks nothing. *)
    if t.n < t.cap then
      for p = 0 to t.n_pending - 1 do
        (mask t t.pending.(p)).(t.n) <- true
      done;
    t.n_pending <- 0
  end;
  Ingest_report.row_read t.report;
  Ingest_report.row_kept t.report;
  t.n <- t.n + 1

(* ------------------------------------------------------------------ *)
(* Column by column                                                     *)
(* ------------------------------------------------------------------ *)

let append t ~rows ~columns ~masks ~labels =
  Array.iteri
    (fun a col ->
      match (t.columns.(a), col) with
      | Dataset.Num dst, Dataset.Num src -> Array.blit src 0 dst t.n rows
      | Dataset.Cat dst, Dataset.Cat src -> Array.blit src 0 dst t.n rows
      | _ -> invalid_arg "Rows.append: column kind")
    columns;
  Array.iteri
    (fun a -> function Some src -> Array.blit src 0 (mask t a) t.n rows | None -> ())
    masks;
  Array.blit labels 0 t.labels t.n rows;
  t.n <- t.n + rows

let lend t ~n ~columns ~masks ~outside ~labels =
  t.n <- n;
  t.cap <- n;
  t.columns <- columns;
  t.masks <- masks;
  t.outside <- outside;
  t.labels <- labels

let loading t = match t.mode with Load -> true | Serve _ -> false

(* Row [i]'s problems in attribute order, then its label (loads). *)
let decide_row t ~checks ~line i =
  for k = 0 to Array.length checks - 1 do
    let a = checks.(k) in
    match (t.masks.(a), t.outside.(a), t.columns.(a)) with
    | Some m, _, _ when m.(i) -> missing t ~line a
    | _, Some dict, Dataset.Cat col when col.(i) < 0 -> outside t ~line a dict.(-1 - col.(i))
    | _ -> ()
  done;
  t.n_pending <- 0;
  if loading t && t.labels.(i) < 0 then no_label t ~line

(* Two copies of one loop: a float array read through a polymorphic
   one would box every cell. *)
let compact_floats keep n (a : float array) =
  let w = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done

let compact keep n a =
  let w = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done

let decide t ~first =
  let n = t.n in
  let checks =
    Array.of_list
      (List.filter
         (fun a -> Option.is_some t.masks.(a) || Option.is_some t.outside.(a))
         (List.init (Array.length t.attrs) Fun.id))
  in
  if Array.length checks = 0 && not (loading t) then begin
    t.report.rows_read <- t.report.rows_read + n;
    t.report.rows_kept <- t.report.rows_kept + n
  end
  else begin
    let keep = bools t k_keep ~at:0 n in
    let kept = ref 0 in
    for i = 0 to n - 1 do
      keep.(i) <-
        (match decide_row t ~checks ~line:(first + i) i with
        | () ->
          Ingest_report.row_read t.report;
          Ingest_report.row_kept t.report;
          incr kept;
          true
        | exception Skipped -> false)
    done;
    if !kept < n then begin
      Array.iter
        (function
          | Dataset.Num a -> compact_floats keep n a
          | Dataset.Cat a -> compact keep n a)
        t.columns;
      Array.iter (Option.iter (compact keep n)) t.masks;
      if Array.length t.labels > 0 then compact keep n t.labels;
      t.n <- !kept
    end
  end

(* ------------------------------------------------------------------ *)
(* Imputation                                                           *)
(* ------------------------------------------------------------------ *)

let median sorted =
  let m = Array.length sorted in
  if m = 0 then 0.0
  else if m land 1 = 1 then sorted.(m / 2)
  else (sorted.((m / 2) - 1) +. sorted.(m / 2)) /. 2.0

let impute_with t attrs =
  match t.policy with
  | Ingest_report.Strict | Ingest_report.Skip -> ()
  | Ingest_report.Impute ->
    Array.iteri
      (fun a (attr : Attribute.t) ->
        let m = t.masks.(a) and outside = Option.is_some t.outside.(a) in
        if Option.is_some m || outside then begin
          let n = t.n in
          let is_gap =
            match (m, t.columns.(a)) with
            | Some m, Dataset.Cat col when outside -> fun i -> m.(i) || col.(i) < 0
            | Some m, _ -> fun i -> m.(i)
            | None, Dataset.Cat col -> fun i -> col.(i) < 0
            | None, Dataset.Num _ -> fun _ -> false
          in
          let gaps = ref 0 in
          for i = 0 to n - 1 do
            if is_gap i then incr gaps
          done;
          if !gaps > 0 then begin
            (match t.columns.(a) with
            | Dataset.Num col ->
              let present = ref [] in
              for i = n - 1 downto 0 do
                if (not (is_gap i)) && not (Float.is_nan col.(i)) then present := col.(i) :: !present
              done;
              let sorted = Array.of_list !present in
              Array.sort Float.compare sorted;
              let v = median sorted in
              for i = 0 to n - 1 do
                if is_gap i then col.(i) <- v
              done
            | Dataset.Cat col ->
              let arity = Attribute.arity attr in
              if arity = 0 then
                raise (t.error (Printf.sprintf "column %S has only missing values" attr.name));
              let counts = Array.make arity 0 in
              for i = 0 to n - 1 do
                if not (is_gap i) then counts.(col.(i)) <- counts.(col.(i)) + 1
              done;
              let majority = ref 0 in
              Array.iteri (fun v c -> if c > counts.(!majority) then majority := v) counts;
              for i = 0 to n - 1 do
                if is_gap i then col.(i) <- !majority
              done);
            t.report.cells_imputed <- t.report.cells_imputed + !gaps
          end
        end)
      attrs

let impute t = impute_with t t.attrs

let clear t =
  t.n <- 0;
  t.n_pending <- 0;
  Array.fill t.masks 0 (Array.length t.masks) None

let dataset t ~attrs ~classes =
  impute_with t attrs;
  let n = t.n in
  let exact a = if Array.length a = n then a else Array.sub a 0 n in
  Dataset.create ~attrs
    ~columns:
      (Array.map
         (function
           | Dataset.Num a -> Dataset.Num (exact a)
           | Dataset.Cat a -> Dataset.Cat (exact a))
         t.columns)
    ~labels:(exact t.labels) ~classes ()
