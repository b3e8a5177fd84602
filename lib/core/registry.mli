(** Versioned on-disk model registry with staged rollout support.

    A registry is a directory of immutable generation files plus an
    atomically rewritten pointer:

    {v
    <dir>/gen-1.model    serialized model, any supported format version
    <dir>/gen-2.model
    <dir>/CURRENT        one line naming the serving file: "gen-2.model"
    v}

    Generation files are never rewritten in place ({!publish} always
    allocates the next number), so flipping {!set_current} forward is a
    rollout, flipping it backward is a rollback, and every earlier
    generation stays on disk for one-command recovery. The pointer
    write goes through {!Pn_util.Atomic_file.write} under the
    [registry.flip] fault point; {!load_gen} passes [registry.load]. A crash mid-flip
    leaves at most a temp file behind — [CURRENT] keeps naming the old
    generation, which is what a restart will serve. *)

exception Error of string
(** Registry-level failures: missing directory, empty registry, absent
    generation, canary rejection. IO and parse failures keep their own
    exceptions ([Sys_error], {!Serialize.Corrupt}). *)

type t

(** [open_dir dir] wraps an existing directory. Raises {!Error} if
    [dir] is not a directory — the caller creates it, the registry
    never does. *)
val open_dir : string -> t

val dir : t -> string

(** [gen_path t g] is the path of generation [g]'s file, existing or
    not. *)
val gen_path : t -> int -> string

(** All generation numbers present on disk, ascending. Temp files and
    foreign names are ignored. *)
val generations : t -> int list

(** The generation the [CURRENT] pointer names, if the pointer exists
    and parses. A missing or mangled pointer is [None], never an
    error — {!load_initial} falls back to the highest generation. *)
val current : t -> int option

(** [set_current t g] atomically repoints [CURRENT] at an existing
    generation. Raises {!Error} if [g] is not on disk; IO failures
    (and [registry.flip] faults) propagate with [CURRENT] untouched. *)
val set_current : t -> int -> unit

(** [load_gen t g] reads and verifies generation [g], with its
    drift-expectations block when the file has one. Raises
    {!Serialize.Corrupt} / [Sys_error]; transient errnos injected at
    the [registry.load] fault point are retried with backoff. *)
val load_gen : t -> int -> Saved.t * Saved.expectations option

(** [load_initial t] resolves what a booting daemon should serve: the
    generation [CURRENT] names if it loads, else the highest loadable
    generation (scanning downward past corrupt files, each logged),
    with that generation's expectations block when present. Raises
    {!Error} when the registry is empty or nothing loads. *)
val load_initial : t -> int * Saved.t * Saved.expectations option

(** Smallest generation strictly above / largest strictly below [g] —
    the default rollout and rollback targets. *)
val next_above : t -> int -> int option

val prev_below : t -> int -> int option

(** [publish t saved] writes [saved] as the next generation (atomic
    write protocol) and returns its number. Does not touch [CURRENT].
    [expectations] adds the drift baseline to the file;
    [fault_point] renames the write loop's fault point (default
    [serialize.write]) — the background retrainer publishes under
    [retrain.publish] so chaos tests can tear exactly this write. A
    failed write removes its temp file and allocates no generation. *)
val publish :
  ?expectations:Saved.expectations -> ?fault_point:string -> t -> Saved.t -> int

(** [warm saved] forces the compile → score path on a synthetic canary
    batch built from the model's own schema (every column, every
    categorical code). Any exception means the model must not be
    flipped live; returns unit on success. *)
val warm : Saved.t -> unit
