(** Crash-safe file replacement: the one write protocol behind model
    files, [.pnc] files and the model registry's [CURRENT] pointer. *)

(** [write ~fault_point path produce] calls [produce sink] and writes
    every string handed to [sink], in order, to a temp file in [path]'s
    directory. The bytes are fsynced, the temp file is renamed over
    [path], and the directory is fsynced. A crash at any point leaves
    [path] either absent or entirely the old bytes, never a torn hybrid.

    The write loop passes the {!Fault} point [fault_point] on every
    write and retries [EINTR]. Raises [Unix.Unix_error] / [Sys_error]
    on IO failure, and re-raises whatever [produce] raises; either way
    the temp file is removed and [path] is untouched. *)
val write : fault_point:string -> string -> ((string -> unit) -> unit) -> unit
