(** Streaming batch prediction: the end-to-end serving pipeline.

    [predict_csv] pulls a CSV feed through the {!Pn_data.Stream} decoder
    in fixed-size chunks, validates each chunk against the saved model's
    schema ({!Saved.resolve_header} on the header, per-cell kind checks on
    the rows), scores it through the compiled rule engine and streams a
    predictions CSV out — the full dataset is never materialized, so
    resident memory is bounded by the chunk size, not the feed. The
    pipeline is written against {!Saved.t}, so a boosted ensemble serves
    through exactly the same path as a single PNrule model.

    Row handling follows the ingestion {!Pn_data.Ingest_report.policy}
    through the row store the loaders use ({!Pn_data.Rows}), so a row is
    read as it was in training:
    - [Strict]: any undecodable row (malformed CSV, wrong arity, missing
      value, categorical value the model has never seen) raises {!Error};
    - [Skip]: such rows are dropped and counted — no prediction line is
      emitted for them;
    - [Impute]: missing cells ("?" or empty, or a [.pnc] bitmap bit) and
      unseen categorical values are filled with the {e chunk-local}
      median of the non-NaN values / majority value (serving sees data
      one chunk at a time, so imputation statistics are per chunk by
      design; a chunk with no usable value for a column falls back to
      0 / the first categorical value). Other bad rows are still
      dropped as under [Skip].

    Rows are decided in order, and within a row the first problem in
    the model's attribute order decides, on both paths.

    Labels are metrics-only: when a class column is present (explicit
    [~class_column], or a header column named "class" that the model does
    not claim as a feature), rows whose label matches the model's class
    table feed a running confusion matrix; unknown or missing labels are
    counted but never fail the feed. *)

exception Error of string

(** Raised by {!predict_stream} when the feed exceeds [max_rows]. Kept
    distinct from {!Error} so the daemon can answer 413 rather than
    400. *)
exception Limit of string

type report = {
  ingest : Pn_data.Ingest_report.t;
  chunks : int;  (** number of scored chunks *)
  rows_out : int;  (** prediction lines written *)
  unknown_labels : int;
      (** rows whose class cell did not name a model class *)
  seconds : float;  (** wall-clock time for the whole pipeline *)
  confusion : Pn_metrics.Confusion.t option;
      (** running test metrics, when a usable class column exists *)
}

(** Per-chunk tap on the scored stream, for the drift monitor and the
    retraining reservoir: called once per scored chunk, after scoring
    and before the chunk's output is written, with the chunk's decoded
    [columns], the {!Saved.eval_batch} result and the resolved label
    codes ([actuals.(i) < 0] = unlabeled). Every array may be longer
    than the chunk: only the first [n] entries of each are valid.
    [columns], [batch] and [actuals] may alias decoder-owned
    buffers and the caller's [scratch], which the next chunk and the
    next request overwrite — an observer that retains rows or evidence
    must copy. An exception from the observer aborts the feed like a
    scoring error. *)
type observer =
  n:int ->
  columns:Pn_data.Dataset.column array ->
  batch:Saved.batch ->
  actuals:int array ->
  unit

(** [predict_stream ~model ~source ~write ()] is the decode/score core
    shared by the batch pipeline and the online daemon: it pulls CSV
    rows from an arbitrary {!Pn_data.Stream.source} (a file, a socket
    body, an in-memory string) and pushes prediction lines through
    [write] — one call for the header line, then one per scored chunk,
    which is what lets the HTTP path emit exactly one transfer chunk
    per scored chunk. [max_rows] bounds the number of data rows
    (kept, skipped or malformed) the feed may carry; exceeding it
    raises {!Limit}. Raises {!Error} on a schema mismatch or, under
    [Strict], on the first bad row. [scratch] lends the per-chunk
    buffers (labels, weights, predictions, scores, output text, the
    compiled engine's arrays); a serving worker passes its own, so a
    warmed worker reuses them from request to request. Without one the
    call uses a fresh scratch. *)
val predict_stream :
  ?policy:Pn_data.Ingest_report.policy ->
  ?chunk_size:int ->
  ?class_column:string ->
  ?scores:bool ->
  ?max_rows:int ->
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  ?observe:observer ->
  model:Saved.t ->
  source:Pn_data.Stream.source ->
  write:(string -> unit) ->
  unit ->
  report

(** [predict_columnar_stream ~model ~source ~write ()] is the binary
    fast path: the same scoring, output formatting and policy semantics
    as {!predict_stream}, fed from a {!Pn_data.Columnar} [.pnc] stream
    instead of CSV text. One row group is scored per chunk (so the
    file's group size plays the role of [chunk_size]), decoded straight
    into reusable buffers with no per-cell parsing; on the same rows the
    output is byte-identical to the CSV path's. The file's categorical
    dictionaries and class table are remapped to the model's by name;
    values the model has never seen follow the policy exactly like
    unknown CSV cells, and missing-value bitmaps drive
    Strict/Skip/Impute the same way. When the file carries labels they
    feed the confusion matrix, as a CSV "class" column would. Raises
    {!Error} (wrapping {!Pn_data.Columnar.Corrupt} as
    ["columnar: ..."] ) and {!Limit} like the CSV core — {!Limit} as
    soon as the header declares more than [max_rows] rows, before any
    group is decoded. The group buffers come from [scratch] too
    ({!Pn_data.Columnar.open_reader}), so a warmed worker serves a
    request without allocating a row-sized block. *)
val predict_columnar_stream :
  ?policy:Pn_data.Ingest_report.policy ->
  ?scores:bool ->
  ?max_rows:int ->
  ?pool:Pn_util.Pool.t ->
  ?scratch:Pn_util.Scratch.t ->
  ?observe:observer ->
  model:Saved.t ->
  source:Pn_data.Stream.source ->
  write:(string -> unit) ->
  unit ->
  report

(** [predict_pnc ~model ~input ~output ()] — {!predict_columnar_stream}
    over a [.pnc] file, the binary counterpart of {!predict_csv}. *)
val predict_pnc :
  ?policy:Pn_data.Ingest_report.policy ->
  ?scores:bool ->
  ?pool:Pn_util.Pool.t ->
  model:Saved.t ->
  input:string ->
  output:out_channel ->
  unit ->
  report

(** [predict_csv ~model ~input ~output ()] streams file [input] through
    [model] and writes one CSV line per surviving row to [output]
    (header [prediction], plus a [score] column with [~scores:true]).
    [chunk_size] rows are decoded and scored at a time (default 8192).
    A thin wrapper over {!predict_stream}.
    Raises {!Error} on a schema mismatch or, under [Strict], on the
    first bad row; [Sys_error] on IO failure. *)
val predict_csv :
  ?policy:Pn_data.Ingest_report.policy ->
  ?chunk_size:int ->
  ?class_column:string ->
  ?scores:bool ->
  ?pool:Pn_util.Pool.t ->
  model:Saved.t ->
  input:string ->
  output:out_channel ->
  unit ->
  report
