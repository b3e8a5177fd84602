(** Plain-text persistence for {!Saved.t} models.

    The format is line-oriented and self-contained: it carries the class
    table, the attribute schema (with categorical value names), and the
    model body. Written models round-trip exactly.

    The writer emits format v4: a [pnrule-model v4] header, a
    [kind pnrule] or [kind boosted] line, the model body, an optional
    per-rule drift-expectations block ({!Saved.expectations}), and a
    [crc XXXXXXXX] footer — the CRC-32 of every byte above it. The
    reader also accepts the two older formats, which carry no
    expectations: v2 holds a single two-phase PNrule model (both rule
    lists, the ScoreMatrix, decision parameters) and v3 a boosted
    ensemble (bias, decision threshold, and one weighted rule per
    member); their bodies are exactly v4's. Every version ends with the
    footer, which the reader verifies before parsing, so torn, truncated
    or bit-flipped files are rejected with one clean error. *)

exception Corrupt of string
(** Raised by the readers on malformed input — bad syntax, implausible
    counts, a rule that does not fit the schema, an unsupported version
    or a checksum mismatch — with a description. Every reader failure
    mode is funnelled into this exception so callers can safely decide
    "keep the previous model". *)

(** [to_string ?expectations sm] serializes [sm] as v4, with the
    expectations block when [expectations] is given. Raises
    [Invalid_argument] when the expectations' arrays do not cover
    exactly [Saved.n_monitored sm] rules. *)
val to_string : ?expectations:Saved.expectations -> Saved.t -> string

(** [of_string s] parses a v2, v3 or v4 model and the expectations block
    when the file has one (v2 and v3 never do). Raises {!Corrupt}. *)
val of_string : string -> Saved.t * Saved.expectations option

(** [save ?fault_point ?expectations sm path] writes {!to_string}'s bytes
    through {!Pn_util.Atomic_file.write}: a crash mid-save leaves the
    previous file intact, never a torn hybrid. [fault_point] names the
    write loop's {!Pn_util.Fault} point (default [serialize.write]); the
    background retrainer publishes under [retrain.publish]. Raises
    [Unix.Unix_error] / [Sys_error] on IO failure (the temp file is
    removed, [path] untouched). *)
val save :
  ?fault_point:string -> ?expectations:Saved.expectations -> Saved.t -> string -> unit

(** [load path] reads and verifies a model file. Raises {!Corrupt} or
    [Sys_error]. *)
val load : string -> Saved.t * Saved.expectations option

(** [load_saved path] is [fst (load path)]. *)
val load_saved : string -> Saved.t
