(* fsync of a directory makes the rename itself durable. Some
   filesystems refuse it; that only weakens durability, never
   atomicity, so errors are ignored. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write ~fault_point path produce =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let write_all fd data =
    let len = String.length data in
    let off = ref 0 in
    while !off < len do
      let want = Fault.cap fault_point (min 65536 (len - !off)) in
      match Unix.write_substring fd data !off want with
      | n -> off := !off + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        produce (write_all fd);
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> fsync_dir (Filename.dirname path)
  | exception e ->
    (* Never leave the half-written temp file behind, and never let the
       failure touch [path]: the previous version stays valid. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
