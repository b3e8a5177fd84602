(** [pnc] — the compact binary columnar dataset format.

    A [.pnc] file carries one dataset as typed per-column blocks grouped
    into fixed-size {e row groups}, so readers stream it group-by-group
    in constant memory, with no per-cell text parsing:

    - numeric columns are raw little-endian IEEE-754 float64 arrays
      (NaN/infinities round-trip bit-exactly);
    - categorical columns are dictionary-encoded: the header carries the
      per-column string table once, cells are 1/2/4-byte codes picked
      from the dictionary arity;
    - every column block may carry a missing-value bitmap, so the
      Strict/Skip/Impute ingestion policies apply exactly as they do to
      CSV feeds;
    - labels (when present) are a per-group code block against the class
      table in the header; the reserved code [n_classes] marks a missing
      label and decodes as [-1].

    Integrity: the header, each row-group header, and each block payload
    carry their own CRC-32 ({!Pn_util.Crc32}), verified before any
    decoded byte is used; the footer carries the total row count and a
    file-level CRC-32 over the concatenated block checksums, so
    truncation, bit flips, and group reordering/omission all surface as
    {!Corrupt} — never a crash, never silently wrong data. Writers
    ([{!save}]) are atomic ({!Pn_util.Atomic_file}). The byte-counted
    fault points [columnar.write] / [columnar.read]
    ({!Pn_util.Fault.cap}) sit on both paths for chaos testing.

    The full on-disk layout is specified in DESIGN.md. *)

(** The file cannot be decoded: bad magic, checksum mismatch, truncated
    or malformed structure — or, under the [Strict] policy, a missing
    value the policy refuses to accept. *)
exception Corrupt of string

(** Rows per row group when the writer is not told otherwise (8192,
    matching the serving tier's default chunk size). *)
val default_group_size : int

type schema = {
  n_rows : int;
  group_size : int;  (** rows per group (the last group may be shorter) *)
  n_groups : int;
  has_labels : bool;
  classes : string array;
  attrs : Attribute.t array;
}

(** [group_capacity sch] is [min sch.group_size sch.n_rows]: the most
    rows any group of the file holds, and so the length of every
    per-group buffer the reader allocates. *)
val group_capacity : schema -> int

(** {1 Writing} *)

(** [write sink ds] streams the encoded file through [sink] in block
    units. [missing], when given, has one entry per attribute; a
    [Some mask] marks cells to flag in that column's missing bitmaps
    (the stored cell value is still the dataset's). Dataset weights are
    not stored. *)
val write :
  ?group_size:int ->
  ?missing:bool array option array ->
  (string -> unit) ->
  Dataset.t ->
  unit

val to_string :
  ?group_size:int -> ?missing:bool array option array -> Dataset.t -> string

(** [save ds path] streams {!write}'s blocks through
    {!Pn_util.Atomic_file.write} under the [columnar.write] fault point,
    one block at a time, so a crash mid-write leaves any previous file
    at [path] byte-identical. *)
val save :
  ?group_size:int -> ?missing:bool array option array -> Dataset.t -> string -> unit

(** {1 Streaming reads}

    The group reader decodes straight into per-column buffers allocated
    once and reused for every group — the serving tier hands these
    buffers to the compiled scoring engine without copying. *)

type reader

(** [open_reader source] reads and verifies the magic and header.
    Raises {!Corrupt}. The group buffers are borrowed from [scratch]
    (a fresh one by default), so a serving worker decodes every request
    into the same arrays; they stay valid until that scratch's next
    reader. *)
val open_reader : ?scratch:Pn_util.Scratch.t -> Stream.source -> reader

val schema : reader -> schema

(** [set_wanted r mask] restricts decoding to the columns with
    [mask.(j) = true] (all columns by default): unwanted blocks are
    still checksum-verified but never decoded. Must be called before the
    first {!read_group}. *)
val set_wanted : reader -> bool array -> unit

(** [read_group r] decodes the next row group and returns its row count,
    or [None] once the footer has been read and verified. Raises
    {!Corrupt} on any integrity failure. The accessors below expose the
    decoded group; their arrays are reused by the next call. *)
val read_group : reader -> int option

(** [num_col r j] / [cat_col r j] — column [j]'s decoded cells for the
    current group (only the first [n] cells are meaningful). The cat
    codes index the file dictionary [attrs.(j)]. The returned array is
    the reader's own buffer: callers may mutate it (e.g. remap codes in
    place) until the next {!read_group}. *)
val num_col : reader -> int -> float array

val cat_col : reader -> int -> int array

(** [col_missing r j] is column [j]'s missing mask for the current
    group, or [None] when the group's block carried no bitmap. *)
val col_missing : reader -> int -> bool array option

(** Label codes of the current group ([-1] = missing label), when the
    file carries labels. *)
val group_labels : reader -> int array option

(** Transient IO retries accumulated by the underlying source. *)
val io_retries : reader -> int

(** {1 Whole-file loads} *)

(** [load path] decodes a labeled [.pnc] file back into a dataset
    (weights reset to 1). Missing cells and labels follow [policy]
    through the CSV loader's row store ({!Rows}): [Strict] (default)
    raises, [Skip] drops the row, [Impute] fills a cell with the
    whole-file median / majority and drops a row with no label. Raises
    {!Corrupt} (also for unlabeled files, which cannot rebuild a
    dataset). *)
val load : ?policy:Ingest_report.policy -> string -> Dataset.t

val load_with_report :
  ?policy:Ingest_report.policy -> string -> Dataset.t * Ingest_report.t

val of_string : ?policy:Ingest_report.policy -> string -> Dataset.t
