(* Versioned on-disk model registry: a directory of immutable
   generation files plus an atomically rewritten CURRENT pointer.

   Layout:
     <dir>/gen-1.model    serialized Saved.t, any supported version
     <dir>/gen-2.model
     <dir>/CURRENT        one line naming the serving file: "gen-2.model"

   Generation files are never rewritten in place — [publish] always
   allocates the next number — so a flip is a pointer swap and a
   rollback is the same swap in reverse, with every earlier generation
   still on disk. The pointer write rides [Pn_util.Atomic_file.write]
   under the [registry.flip] fault point: a crash mid-flip tears at
   most a temp file, and CURRENT keeps naming the old generation. *)

let log = Logs.Src.create "pnrule.registry" ~doc:"versioned model registry"

module Log = (val Logs.src_log log)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type t = { dir : string }

let current_name = "CURRENT"

let open_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    fail "registry %s: not a directory" dir;
  { dir }

let dir t = t.dir

let gen_file g = Printf.sprintf "gen-%d.model" g

let gen_path t g = Filename.concat t.dir (gen_file g)

(* "gen-N.model" with nothing after it: the %! rejects trailing bytes,
   so temp files left by a torn atomic write ("gen-2.model.tmp.123")
   never parse as a generation. *)
let parse_gen name =
  match Scanf.sscanf name "gen-%d.model%!" Fun.id with
  | g when g >= 1 -> Some g
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let generations t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map parse_gen
  |> List.sort_uniq compare

let current t =
  match
    In_channel.with_open_bin (Filename.concat t.dir current_name)
      In_channel.input_all
  with
  | s -> parse_gen (String.trim s)
  | exception Sys_error _ -> None

let set_current t g =
  if not (Sys.file_exists (gen_path t g)) then
    fail "registry %s: generation %d does not exist" t.dir g;
  Pn_util.Atomic_file.write ~fault_point:"registry.flip"
    (Filename.concat t.dir current_name)
    (fun sink -> sink (gen_file g ^ "\n"))

(* Transient errnos injected at [registry.load] get the same bounded
   backed-off retry as the production IO loops; anything else (Corrupt,
   Sys_error, a hard Injected) propagates to the caller's keep-the-old-
   generation policy. *)
let load_gen t g =
  let rec pass attempt =
    match Pn_util.Fault.check "registry.load" with
    | () -> ()
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when attempt < 5 ->
      Pn_util.Backoff.sleep ~attempt ();
      pass (attempt + 1)
  in
  pass 0;
  Serialize.load (gen_path t g)

let next_above t g = List.find_opt (fun x -> x > g) (generations t)

let prev_below t g =
  List.fold_left
    (fun acc x -> if x < g then Some x else acc)
    None (generations t)

let load_initial t =
  let gens = generations t in
  if gens = [] then fail "registry %s: no gen-N.model files" t.dir;
  let try_load g =
    match load_gen t g with
    | m, exp -> Some (g, m, exp)
    | exception Serialize.Corrupt reason ->
      Log.warn (fun m ->
          m "registry %s: skipping corrupt generation %d: %s" t.dir g reason);
      None
    | exception Sys_error _ -> None
  in
  let picked =
    match Option.bind (current t) try_load with
    | Some _ as r -> r
    | None ->
      (* No (valid) pointer: fall back to the highest generation that
         still loads, scanning downward past corrupt files. *)
      List.fold_left
        (fun acc g -> match acc with Some _ -> acc | None -> try_load g)
        None (List.rev gens)
  in
  match picked with
  | Some r -> r
  | None -> fail "registry %s: no loadable generation" t.dir

let publish ?expectations ?fault_point t saved =
  let g = List.fold_left max 0 (generations t) + 1 in
  Serialize.save ?fault_point ?expectations saved (gen_path t g);
  g

(* The canary batch is synthetic but schema-exact: every column of the
   model's own attribute table, every categorical code hit via mod, so
   warming forces the full load → compile → score path a real request
   would take. Values need no realism — an out-of-range rule column, an
   empty dictionary or a broken compiled program all surface here as
   exceptions, which is the point: a generation that cannot score a
   trivial batch must never be flipped live. *)
let canary_rows = 64

let warm saved =
  let attrs = Saved.attrs saved in
  if Array.length attrs > 0 then begin
    let n = canary_rows in
    let columns =
      Array.map
        (fun (a : Pn_data.Attribute.t) ->
          match a.kind with
          | Pn_data.Attribute.Numeric ->
            Pn_data.Dataset.Num
              (Array.init n (fun i -> (float_of_int (i mod 13) -. 6.0) *. 0.75))
          | Pn_data.Attribute.Categorical values ->
            let arity = Array.length values in
            if arity = 0 then
              fail "canary: attribute %S has no categorical values" a.name;
            Pn_data.Dataset.Cat (Array.init n (fun i -> i mod arity)))
        attrs
    in
    let classes = Saved.classes saved in
    let labels = Array.init n (fun i -> i mod max 1 (Array.length classes)) in
    let ds = Pn_data.Dataset.create ~attrs ~columns ~labels ~classes () in
    let preds = Saved.predict_all ~pool:Pn_util.Pool.sequential saved ds in
    let scores = Saved.score_all ~pool:Pn_util.Pool.sequential saved ds in
    if Array.length preds <> n || Array.length scores <> n then
      fail "canary: scoring returned %d/%d results for %d rows"
        (Array.length preds) (Array.length scores) n
  end
