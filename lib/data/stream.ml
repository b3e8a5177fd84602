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

(* One row's fields, back to back in [text]: field [k] is the bytes
   from [ends.(k - 1)] (0 for the first) to [ends.(k)]. Both arrays are
   reused from row to row and grow by doubling. *)
type row = {
  mutable text : bytes;
  mutable len : int;
  mutable ends : int array;
  mutable fields : int;
}

let fields r = r.fields
let text r = r.text

let check r k = if k < 0 || k >= r.fields then invalid_arg "Stream.field"
let field_start r k = if k = 0 then 0 else Array.unsafe_get r.ends (k - 1)
let field_end r k = Array.unsafe_get r.ends k

let field r k =
  check r k;
  let lo = field_start r k in
  Bytes.sub_string r.text lo (field_end r k - lo)

let strings r = Array.init r.fields (field r)

(* What [String.trim] removes. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* An all-space field trims to the empty slice at its start, so the two
   bounds never cross. *)
let trimmed_start r k =
  check r k;
  let lo = field_start r k and hi = field_end r k in
  let i = ref lo in
  while !i < hi && is_space (Bytes.unsafe_get r.text !i) do
    incr i
  done;
  if !i = hi then lo else !i

let trimmed_end r k =
  check r k;
  let lo = field_start r k in
  let i = ref (field_end r k) in
  while !i > lo && is_space (Bytes.unsafe_get r.text (!i - 1)) do
    decr i
  done;
  !i

let trimmed r k =
  let lo = trimmed_start r k in
  Bytes.sub_string r.text lo (trimmed_end r k - lo)

let reserve r n =
  if r.len + n > Bytes.length r.text then begin
    let text = Bytes.create (max (2 * Bytes.length r.text) (r.len + n)) in
    Bytes.blit r.text 0 text 0 r.len;
    r.text <- text
  end

let add_char r c =
  reserve r 1;
  Bytes.unsafe_set r.text r.len c;
  r.len <- r.len + 1

let push_field r =
  if r.fields = Array.length r.ends then begin
    let ends = Array.make (2 * r.fields) 0 in
    Array.blit r.ends 0 ends 0 r.fields;
    r.ends <- ends
  end;
  Array.unsafe_set r.ends r.fields r.len;
  r.fields <- r.fields + 1

(* The bytes that end a run of ordinary ones: in an unquoted field the
   separators, the quote and CR; in a quoted field the quote and the
   newline, whose line the state function counts. *)
let stops chars =
  String.init 256 (fun i -> if String.contains chars (Char.chr i) then '\001' else '\000')

let unquoted_stops = stops ",\n\r\""
let quoted_stops = stops "\"\n"
let ordinary stops c = String.unsafe_get stops (Char.code c) = '\000'

(* Copies the run of ordinary bytes at the read position into the row
   with one blit. The byte that ends the run, or the next refill, is
   left to [next]. *)
let take_run src r stops =
  let buf = src.buf and len = src.len in
  let i = ref src.pos in
  while !i < len && ordinary stops (Bytes.unsafe_get buf !i) do
    incr i
  done;
  let n = !i - src.pos in
  if n > 0 then begin
    reserve r n;
    Bytes.blit buf src.pos r.text r.len n;
    r.len <- r.len + n;
    src.pos <- !i
  end

(* Each state reads one byte, handles [eof] first, then matches on the
   byte as a character ([Char.unsafe_chr] is the identity on 0..255).
   The two field states first take the run of ordinary bytes ahead. *)
let fold_rows src ~init ~f =
  let row = { text = Bytes.create 256; len = 0; ends = Array.make 16 0; fields = 0 } in
  let ok = Ok row in
  (* [line] counts physical lines consumed so far; [row_line] is where
     the row being decoded started. *)
  let line = ref 1 in
  let row_line = ref 1 in
  let row_quoted = ref false in
  let acc = ref init in
  let reset_row () =
    row.len <- 0;
    row.fields <- 0;
    row_quoted := false;
    row_line := !line
  in
  let emit_row () =
    push_field row;
    (* Whitespace-only unquoted rows are the blank lines the line-based
       loader used to drop. *)
    let blank =
      row.fields = 1
      && (not !row_quoted)
      && trimmed_start row 0 = trimmed_end row 0
    in
    if not blank then acc := f !acc ~line:!row_line ok;
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
    (* A field that starts with an ordinary byte goes straight to the
       run scan, as it would after reading that byte. *)
    if src.pos < src.len && ordinary unquoted_stops (Bytes.unsafe_get src.buf src.pos) then
      unquoted ()
    else
      let b = next src in
      if b = eof then begin
        if row.fields > 0 || row.len > 0 || !row_quoted then emit_row ()
      end
      else
        match Char.unsafe_chr b with
        | ',' ->
          push_field row;
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
          add_char row c;
          unquoted ()
  and unquoted () =
    take_run src row unquoted_stops;
    let b = next src in
    if b = eof then emit_row ()
    else
      match Char.unsafe_chr b with
      | ',' ->
        push_field row;
        field_start ()
      | '"' -> fail_row "'\"' inside an unquoted field" field_start
      | '\n' ->
        incr line;
        emit_row ();
        field_start ()
      | '\r' -> cr_unquoted ()
      | c ->
        add_char row c;
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
        add_char row '\r';
        push_field row;
        field_start ()
      | '"' ->
        add_char row '\r';
        fail_row "'\"' inside an unquoted field" field_start
      | '\r' ->
        add_char row '\r';
        cr_unquoted ()
      | c ->
        add_char row '\r';
        add_char row c;
        unquoted ()
  and quoted () =
    take_run src row quoted_stops;
    let b = next src in
    if b = eof then fail_row "unterminated quoted field" (fun () -> ())
    else
      match Char.unsafe_chr b with
      | '"' -> quote_seen ()
      | '\n' ->
        incr line;
        add_char row '\n';
        quoted ()
      | c ->
        add_char row c;
        quoted ()
  (* Saw '"' inside a quoted field: either an escape ("") or the close. *)
  and quote_seen () =
    let b = next src in
    if b = eof then emit_row ()
    else
      match Char.unsafe_chr b with
      | '"' ->
        add_char row '"';
        quoted ()
      | ',' ->
        push_field row;
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

let fold_csv src ~init ~f =
  fold_rows src ~init ~f:(fun acc ~line -> function
    | Ok row -> f acc ~line (Ok (strings row))
    | Error msg -> f acc ~line (Error msg))

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
