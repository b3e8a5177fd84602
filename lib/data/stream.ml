type source = {
  buf : bytes;
  mutable pos : int;
  mutable len : int;
  refill : bytes -> int;
  mutable retries : int;
}

let of_channel ?(buf_size = 65536) ic =
  if buf_size <= 0 then invalid_arg "Stream.of_channel: buf_size";
  let buf = Bytes.create buf_size in
  {
    buf;
    pos = 0;
    len = 0;
    refill = (fun b -> input ic b 0 (Bytes.length b));
    retries = 0;
  }

(* The string is the buffer, read in place and never copied. It is
   never written either: a string source's refill writes nothing and
   returns 0, and so does [refill] below under an armed [stream.refill]
   short read, which blits the 0 bytes it got. *)
let of_string s =
  {
    buf = Bytes.unsafe_of_string s;
    pos = 0;
    len = String.length s;
    refill = (fun _ -> 0);
    retries = 0;
  }

let of_refill ~buf refill =
  if Bytes.length buf = 0 then invalid_arg "Stream.of_refill: empty buf";
  { buf; pos = 0; len = 0; refill; retries = 0 }

let retries src = src.retries

(* Transient refill errors (EINTR/EAGAIN storms, injected faults) are
   retried a bounded number of times with jittered exponential backoff;
   each retry is counted on the source and surfaced through
   [Ingest_report.io_retries]. Anything still failing after the budget
   propagates to the caller. *)
let max_refill_retries = 5

let refill src =
  let len = Bytes.length src.buf in
  let rec attempt k =
    match
      (* A string-backed source can carry an empty buffer; the fault
         point only makes sense for real reads. *)
      let want = if len = 0 then 0 else Pn_util.Fault.cap "stream.refill" len in
      if want >= len then src.refill src.buf
      else begin
        (* Injected short read: offer the producer a smaller window, so
           every byte it yields still lands in [buf] — data is delayed,
           never dropped. *)
        let sub = Bytes.create want in
        let n = src.refill sub in
        Bytes.blit sub 0 src.buf 0 n;
        n
      end
    with
    | n -> n
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when k < max_refill_retries ->
      src.retries <- src.retries + 1;
      Pn_util.Backoff.sleep ~attempt:k ();
      attempt (k + 1)
  in
  attempt 0

(* Bulk binary read for the columnar decoder: drain the buffered bytes
   first, then refill. Returns 0 only at end of input. *)
let read_into src dst pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg "Stream.read_into";
  if len = 0 then 0
  else if src.pos < src.len then begin
    let n = min len (src.len - src.pos) in
    Bytes.blit src.buf src.pos dst pos n;
    src.pos <- src.pos + n;
    n
  end
  else begin
    let n = refill src in
    if n = 0 then 0
    else begin
      src.len <- n;
      let k = min len n in
      Bytes.blit src.buf 0 dst pos k;
      src.pos <- k;
      k
    end
  end

let eof = -1

(* The next byte as an int, or [eof] at end of input. The decoders read
   every byte through here, so it returns an immediate rather than
   allocating a [char option] per byte. *)
let next src =
  if src.pos < src.len then begin
    let c = Bytes.unsafe_get src.buf src.pos in
    src.pos <- src.pos + 1;
    Char.code c
  end
  else begin
    let n = refill src in
    if n = 0 then eof
    else begin
      src.len <- n;
      src.pos <- 1;
      Char.code (Bytes.unsafe_get src.buf 0)
    end
  end

(* ------------------------------------------------------------------ *)
(* CSV state machine                                                    *)
(* ------------------------------------------------------------------ *)

(* Each state reads one byte, handles [eof] first, then matches on the
   byte as a character ([Char.unsafe_chr] is the identity on 0..255). *)
let fold_csv src ~init ~f =
  let field = Buffer.create 64 in
  let fields = ref [] in
  (* [line] counts physical lines consumed so far; [row_line] is where
     the row being decoded started. *)
  let line = ref 1 in
  let row_line = ref 1 in
  let row_quoted = ref false in
  let acc = ref init in
  let push_field () =
    fields := Buffer.contents field :: !fields;
    Buffer.clear field
  in
  let reset_row () =
    Buffer.clear field;
    fields := [];
    row_quoted := false;
    row_line := !line
  in
  let emit_row () =
    let row = Array.of_list (List.rev (Buffer.contents field :: !fields)) in
    (* Whitespace-only unquoted rows are the blank lines the line-based
       loader used to drop. *)
    if not (Array.length row = 1 && (not !row_quoted) && String.trim row.(0) = "")
    then acc := f !acc ~line:!row_line (Ok row);
    reset_row ()
  in
  let emit_error msg = acc := f !acc ~line:!row_line (Error msg) in
  (* After a row error: drop input up to and including the next newline,
     then restart cleanly. *)
  let rec resync () =
    let b = next src in
    if b = Char.code '\n' then incr line else if b <> eof then resync ()
  in
  let fail_row msg k =
    emit_error msg;
    resync ();
    reset_row ();
    k ()
  in
  let rec field_start () =
    let b = next src in
    if b = eof then begin
      if !fields <> [] || Buffer.length field > 0 || !row_quoted then emit_row ()
    end
    else
      match Char.unsafe_chr b with
      | ',' ->
        push_field ();
        field_start ()
      | '"' ->
        row_quoted := true;
        quoted ()
      | '\n' ->
        incr line;
        emit_row ();
        field_start ()
      | '\r' -> cr_unquoted ()
      | c ->
        Buffer.add_char field c;
        unquoted ()
  and unquoted () =
    let b = next src in
    if b = eof then emit_row ()
    else
      match Char.unsafe_chr b with
      | ',' ->
        push_field ();
        field_start ()
      | '"' -> fail_row "'\"' inside an unquoted field" field_start
      | '\n' ->
        incr line;
        emit_row ();
        field_start ()
      | '\r' -> cr_unquoted ()
      | c ->
        Buffer.add_char field c;
        unquoted ()
  (* Saw '\r' outside quotes: strip it when it closes the row, keep it as
     a literal character otherwise. *)
  and cr_unquoted () =
    let b = next src in
    if b = eof then emit_row () (* end of input is a row boundary: strip the CR *)
    else
      match Char.unsafe_chr b with
      | '\n' ->
        incr line;
        emit_row ();
        field_start ()
      | ',' ->
        Buffer.add_char field '\r';
        push_field ();
        field_start ()
      | '"' ->
        Buffer.add_char field '\r';
        fail_row "'\"' inside an unquoted field" field_start
      | '\r' ->
        Buffer.add_char field '\r';
        cr_unquoted ()
      | c ->
        Buffer.add_char field '\r';
        Buffer.add_char field c;
        unquoted ()
  and quoted () =
    let b = next src in
    if b = eof then fail_row "unterminated quoted field" (fun () -> ())
    else
      match Char.unsafe_chr b with
      | '"' -> quote_seen ()
      | '\n' ->
        incr line;
        Buffer.add_char field '\n';
        quoted ()
      | c ->
        Buffer.add_char field c;
        quoted ()
  (* Saw '"' inside a quoted field: either an escape ("") or the close. *)
  and quote_seen () =
    let b = next src in
    if b = eof then emit_row ()
    else
      match Char.unsafe_chr b with
      | '"' ->
        Buffer.add_char field '"';
        quoted ()
      | ',' ->
        push_field ();
        field_start ()
      | '\n' ->
        incr line;
        emit_row ();
        field_start ()
      | '\r' -> cr_after_close ()
      | c ->
        fail_row (Printf.sprintf "character %C after closing quote" c) field_start
  and cr_after_close () =
    let b = next src in
    if b = eof then emit_row ()
    else
      match Char.unsafe_chr b with
      | '\n' ->
        incr line;
        emit_row ();
        field_start ()
      | c ->
        fail_row (Printf.sprintf "character %C after closing quote" c) field_start
  in
  field_start ();
  !acc

(* ------------------------------------------------------------------ *)
(* Line streaming (ARFF)                                                *)
(* ------------------------------------------------------------------ *)

let fold_lines src ~init ~f =
  let buf = Buffer.create 256 in
  let line = ref 1 in
  let acc = ref init in
  let emit () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let s =
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
    in
    acc := f !acc ~line:!line s
  in
  let rec loop () =
    let b = next src in
    if b = eof then (if Buffer.length buf > 0 then emit ())
    else if b = Char.code '\n' then begin
      emit ();
      incr line;
      loop ()
    end
    else begin
      Buffer.add_char buf (Char.unsafe_chr b);
      loop ()
    end
  in
  loop ();
  !acc
