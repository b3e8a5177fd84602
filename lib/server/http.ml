exception Bad_request of string
exception Disconnect
exception Timeout

module Scratch = Pn_util.Scratch

type conn = {
  fd : Unix.file_descr;
  rbuf : bytes;
  mutable rpos : int;
  mutable rlen : int;
  mutable wretries : int;
  mutable unread : int;  (* request body bytes not yet read *)
  write_fault : string option;
  read_fault : string option;
  scratch : Scratch.t;
}

(* Server and client conns borrow different read buffers: a router
   worker holds one of each at once. *)
let k_server_rbuf = Scratch.key ()
let k_client_rbuf = Scratch.key ()

(* 16 KiB: the response-head cap; request heads are capped at 8 KiB. *)
let conn_of_fd ~key ?(scratch = Scratch.create ())
    ?(write_fault = Some "serve.chunk_write") ?read_fault fd =
  let rbuf = Scratch.bytes scratch key 16384 in
  { fd; rbuf; rpos = 0; rlen = 0; wretries = 0; unread = 0; write_fault; read_fault; scratch }

let make_conn ?scratch fd = conn_of_fd ~key:k_server_rbuf ?scratch fd

let unread_body c = c.unread

(* Write-side retry accounting, drained once per request by the listener
   so keep-alive connections never double-count. *)
let take_io_retries c =
  let n = c.wretries in
  c.wretries <- 0;
  n

(* ------------------------------------------------------------------ *)
(* Raw IO                                                               *)
(* ------------------------------------------------------------------ *)

(* One read of at most [want] bytes into [buf] at [off]; 0 means EOF.
   The socket carries SO_RCVTIMEO, so a stalled peer surfaces as
   [Timeout], not a hung worker. *)
let read_into c buf off want =
  let rec go () =
    match
      let want =
        (* Client-side conns (the router's proxy legs) carry a named
           read fault point so chaos runs can starve or kill the read
           deterministically; server conns read clean. *)
        match c.read_fault with
        | None -> want
        | Some p -> max 1 (Pn_util.Fault.cap p want)
      in
      Unix.read c.fd buf off want
    with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* Only fault-instrumented (client) conns count read retries:
         server-side [pnrule_io_retries_total] keeps its historical
         write-only meaning. *)
      if c.read_fault <> None then c.wretries <- c.wretries + 1;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      raise Disconnect
  in
  go ()

(* Refill the connection buffer; false means EOF. *)
let refill c =
  match read_into c c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> false
  | n ->
    c.rpos <- 0;
    c.rlen <- n;
    true

(* Transient write errors get a bounded, backed-off retry budget per
   write call (EINTR used to spin-retry unboundedly — an EINTR storm
   could wedge a worker). The [serve.chunk_write] fault point can cut a
   write short or inject those errors; short writes are naturally safe
   because the loop resumes at the new offset. *)
let max_write_retries = 5

let write_bytes c b off len =
  let stop = off + len in
  let rec go off attempts =
    if off < stop then
      match
        let want =
          match c.write_fault with
          | None -> stop - off
          | Some p -> Pn_util.Fault.cap p (stop - off)
        in
        Unix.write c.fd b off want
      with
      | n -> go (off + n) 0
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when attempts < max_write_retries ->
        c.wretries <- c.wretries + 1;
        Pn_util.Backoff.sleep ~attempt:attempts ();
        go off (attempts + 1)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Disconnect
  in
  go off 0

let write_all c s = write_bytes c (Bytes.unsafe_of_string s) 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Slabs: a body with room for its head in front                       *)
(* ------------------------------------------------------------------ *)

(* A body assembled (or read) behind [room] spare bytes, so the head,
   which is formatted last, goes into the room and head and body leave
   in one write with no copy of the body. A slab owned by a scratch
   grows inside it. A slab over a string has no room: it is read, or,
   when empty, grown into fresh bytes of its own. *)
type slab = {
  owner : (Scratch.t * Scratch.key) option;
  room : int;
  mutable buf : bytes;
  mutable len : int;  (* end of the body, room included *)
}

(* A response or request head of this many bytes fits the room. *)
let head_room = 1024

let slab scratch key =
  let buf = Scratch.bytes scratch key (head_room + 4096) in
  { owner = Some (scratch, key); room = head_room; buf; len = head_room }

let slab_of_string s =
  { owner = None; room = 0; buf = Bytes.unsafe_of_string s; len = String.length s }

let slab_length s = s.len - s.room

(* Room for [n] more body bytes, doubling. *)
let reserve s n =
  let need = s.len + n in
  if need > Bytes.length s.buf then begin
    let cap = max need (2 * Bytes.length s.buf) in
    let buf =
      match s.owner with
      | Some (scratch, key) -> Scratch.bytes scratch key cap
      | None -> Bytes.create cap
    in
    Bytes.blit s.buf 0 buf 0 s.len;
    s.buf <- buf
  end

let slab_add_string s str =
  let n = String.length str in
  reserve s n;
  Bytes.blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

(* A full slab of no room and no owner is the string itself. *)
let slab_contents s =
  match s.owner with
  | None when s.room = 0 && s.len = Bytes.length s.buf -> Bytes.unsafe_to_string s.buf
  | None | Some _ -> Bytes.sub_string s.buf s.room (slab_length s)

(* [head] and the slab's body leave in one write: the head goes into the
   room in front of the body when it fits, else head and body are
   copied into one buffer of their combined length. *)
let write_slab c head s =
  let hlen = Buffer.length head and blen = slab_length s in
  if hlen <= s.room then begin
    let off = s.room - hlen in
    Buffer.blit head 0 s.buf off hlen;
    write_bytes c s.buf off (hlen + blen)
  end
  else begin
    let out = Bytes.create (hlen + blen) in
    Buffer.blit head 0 out 0 hlen;
    Bytes.blit s.buf s.room out hlen blen;
    write_bytes c out 0 (hlen + blen)
  end

let wait_readable c ~timeout ~stop =
  if c.rpos < c.rlen then `Readable
  else begin
    let deadline = Unix.gettimeofday () +. timeout in
    let rec loop () =
      if stop () then `Stopped
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then `Timeout
        else begin
          let slice = Float.min 0.1 (deadline -. now) in
          match Unix.select [ c.fd ] [] [] slice with
          | [ _ ], _, _ -> `Readable
          | _ -> loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        end
      end
    in
    loop ()
  end

(* ------------------------------------------------------------------ *)
(* Request parsing                                                      *)
(* ------------------------------------------------------------------ *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  content_length : int option;
  chunked_body : bool;
  keep_alive : bool;
}

let header req name = List.assoc_opt name req.headers

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let url_decode ?(plus_space = false) s =
  if not (String.contains s '%' || (plus_space && String.contains s '+')) then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '%' ->
        (* Both malformed shapes — "%2" cut off by the end of the
           string and "%zz" with non-hex digits — must fail identically
           here: Bad_request becomes a deterministic 400 upstream,
           never an escaped exception or a silently mangled byte. *)
        if !i + 2 >= n then
          raise
            (Bad_request
               (Printf.sprintf "truncated percent-encoding %S"
                  (String.sub s !i (n - !i))));
        (match (hex_value s.[!i + 1], hex_value s.[!i + 2]) with
        | Some hi, Some lo -> Buffer.add_char buf (Char.chr ((16 * hi) + lo))
        | _ ->
          raise
            (Bad_request
               (Printf.sprintf "invalid percent-encoding %S"
                  (String.sub s !i 3))));
        i := !i + 2
      | '+' when plus_space -> Buffer.add_char buf ' '
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf
  end

let parse_query s =
  if s = "" then []
  else
    String.split_on_char '&' s
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (url_decode ~plus_space:true kv, "")
             | Some eq ->
               Some
                 ( url_decode ~plus_space:true (String.sub kv 0 eq),
                   url_decode ~plus_space:true
                     (String.sub kv (eq + 1) (String.length kv - eq - 1)) ))

(* Inverse of [url_decode]: unreserved bytes pass through, everything
   else becomes %XX (or '+' for space when [plus_space]). The pair is a
   true round-trip — the router re-serializes a parsed query string
   when proxying, so decode∘encode must be the identity. *)
let url_encode ?(plus_space = false) s =
  let unreserved = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '.' | '_' | '~' -> true
    | _ -> false
  in
  if String.for_all unreserved s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun ch ->
        if unreserved ch then Buffer.add_char buf ch
        else if ch = ' ' && plus_space then Buffer.add_char buf '+'
        else Printf.bprintf buf "%%%02X" (Char.code ch))
      s;
    Buffer.contents buf
  end

let encode_query q =
  String.concat "&"
    (List.map
       (fun (k, v) ->
         url_encode ~plus_space:true k ^ "=" ^ url_encode ~plus_space:true v)
       q)

(* Read one head line (up to '\n', '\r' stripped). [budget] is the
   remaining head byte allowance, mutated as we consume. [at_start]
   distinguishes a clean EOF between keep-alive requests (Disconnect)
   from EOF inside a head (Bad_request). *)
let read_line c ~budget ~at_start =
  let buf = Buffer.create 128 in
  let rec go () =
    if c.rpos >= c.rlen && not (refill c) then
      if at_start && Buffer.length buf = 0 then raise Disconnect
      else raise (Bad_request "EOF inside request head")
    else begin
      let stop = min c.rlen (c.rpos + !budget + 1) in
      (* find '\n' in the buffered window *)
      let nl = ref c.rpos in
      while !nl < stop && Bytes.unsafe_get c.rbuf !nl <> '\n' do
        incr nl
      done;
      let chunk_len = !nl - c.rpos in
      Buffer.add_subbytes buf c.rbuf c.rpos chunk_len;
      budget := !budget - chunk_len;
      if !budget < 0 then raise (Bad_request "request head too large");
      if !nl < c.rlen && Bytes.unsafe_get c.rbuf !nl = '\n' then begin
        c.rpos <- !nl + 1;
        decr budget;
        (* The LF byte counts against the budget too: without this
           check a head exactly one byte over the limit is admitted. *)
        if !budget < 0 then raise (Bad_request "request head too large");
        let s = Buffer.contents buf in
        let n = String.length s in
        let s = if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s in
        (* A CR anywhere but immediately before the LF is a smuggling
           vector (some stacks treat bare CR as a line break, we do
           not); reject instead of silently disagreeing with the peer. *)
        if String.contains s '\r' then
          raise (Bad_request "bare CR in request head");
        s
      end
      else begin
        c.rpos <- !nl;
        if !budget <= 0 then raise (Bad_request "request head too large");
        go ()
      end
    end
  in
  go ()

(* Header block shared by the server half (request heads) and the
   client half (response heads): lowercased names, trimmed values,
   terminated by the empty line. *)
let read_header_block c ~budget =
  let headers = ref [] in
  let rec loop () =
    let line = read_line c ~budget ~at_start:false in
    if line <> "" then begin
      (match String.index_opt line ':' with
      | None | Some 0 -> raise (Bad_request "malformed header line")
      | Some colon ->
        let name = String.lowercase_ascii (String.sub line 0 colon) in
        let value =
          String.trim (String.sub line (colon + 1) (String.length line - colon - 1))
        in
        headers := (name, value) :: !headers);
      loop ()
    end
  in
  loop ();
  List.rev !headers

(* A chunked body's length is unknown until it is read: it counts as
   never read to its end. *)
let read_request ?(max_header = 8192) c =
  let budget = ref max_header in
  let request_line = read_line c ~budget ~at_start:true in
  let meth, target, version =
    match String.split_on_char ' ' request_line with
    | [ m; t; v ] when m <> "" && t <> "" -> (m, t, v)
    | _ -> raise (Bad_request "malformed request line")
  in
  if not (String.length version = 8 && String.sub version 0 7 = "HTTP/1.") then
    raise (Bad_request "unsupported protocol version");
  let path, query =
    match String.index_opt target '?' with
    | None -> (url_decode target, [])
    | Some q ->
      ( url_decode (String.sub target 0 q),
        parse_query (String.sub target (q + 1) (String.length target - q - 1)) )
  in
  let headers = read_header_block c ~budget in
  let find name = List.assoc_opt name headers in
  let content_length =
    match find "content-length" with
    | None -> None
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 -> Some n
      | Some _ | None -> raise (Bad_request "malformed Content-Length"))
  in
  let chunked_body =
    match find "transfer-encoding" with
    | Some v -> String.lowercase_ascii (String.trim v) <> "identity"
    | None -> false
  in
  c.unread <- (if chunked_body then max_int else Option.value content_length ~default:0);
  let keep_alive =
    let conn = Option.map String.lowercase_ascii (find "connection") in
    if version = "HTTP/1.0" then conn = Some "keep-alive" else conn <> Some "close"
  in
  {
    meth;
    path;
    query;
    version;
    headers;
    content_length;
    chunked_body;
    keep_alive;
  }

let body_reader c buf =
  if c.unread <= 0 then 0
  else begin
    let want = min (Bytes.length buf) c.unread in
    let n =
      if c.rpos < c.rlen then begin
        let n = min want (c.rlen - c.rpos) in
        Bytes.blit c.rbuf c.rpos buf 0 n;
        c.rpos <- c.rpos + n;
        n
      end
      else
        match read_into c buf 0 want with
        | 0 -> raise Disconnect (* body shorter than Content-Length *)
        | n -> n
    in
    c.unread <- c.unread - n;
    n
  end

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let status_text = function
  | 100 -> "Continue"
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 502 -> "Bad Gateway"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let add_head buf ~status ~content_type ~keep_alive extra =
  Printf.bprintf buf "HTTP/1.1 %d %s\r\n" status (status_text status);
  Printf.bprintf buf "server: pnrule\r\n";
  Printf.bprintf buf "content-type: %s\r\n" content_type;
  Printf.bprintf buf "connection: %s\r\n"
    (if keep_alive then "keep-alive" else "close");
  extra buf;
  Buffer.add_string buf "\r\n"

let respond_slab c ?(content_type = "text/plain; charset=utf-8")
    ?(keep_alive = false) ?(headers = []) ~status s =
  let head = Buffer.create 256 in
  add_head head ~status ~content_type ~keep_alive (fun buf ->
      Printf.bprintf buf "content-length: %d\r\n" (slab_length s);
      List.iter (fun (k, v) -> Printf.bprintf buf "%s: %s\r\n" k v) headers);
  write_slab c head s

(* A string body has no room in front, so head and body are copied once
   into one buffer of their combined length. *)
let respond c ?content_type ?keep_alive ?headers ~status ~body () =
  respond_slab c ?content_type ?keep_alive ?headers ~status (slab_of_string body)

(* Pre-admission refusal, called from the listener domain on a socket
   that has no [conn] yet: one best-effort write of a tiny canned
   response straight to the raw fd, no buffering and no retries —
   shedding must never block the accept loop behind a slow peer. The
   caller closes the fd. *)
let deny fd ~status ~retry_after ~body =
  let buf = Buffer.create 256 in
  add_head buf ~status ~content_type:"text/plain; charset=utf-8"
    ~keep_alive:false (fun buf ->
      Printf.bprintf buf "content-length: %d\r\n" (String.length body);
      Printf.bprintf buf "retry-after: %d\r\n" retry_after);
  Buffer.add_string buf body;
  let s = Buffer.contents buf in
  match Unix.write_substring fd s 0 (String.length s) with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let continue_100 c = write_all c "HTTP/1.1 100 Continue\r\n\r\n"

type stream_response = {
  sc : conn;
  status : int;
  keep_alive : bool;
  body : slab;  (* the pending body, then one chunk at a time *)
  mutable started : bool;
  mutable finished : bool;
}

let k_stream = Scratch.key ()

let stream_content_type = "text/csv; charset=utf-8"

(* Buffered body bytes at which the head and first chunk hit the socket. *)
let stream_threshold = 16384

let start_stream c ~status ~keep_alive =
  { sc = c; status; keep_alive; body = slab c.scratch k_stream; started = false; finished = false }

let stream_started r = r.started

(* The slab's body as one transfer chunk, size line in the room and
   payload in a single write; the slab is then empty again. *)
let send_chunk r =
  let s = r.body in
  let n = slab_length s in
  if n > 0 then begin
    let head = Buffer.create 16 in
    Printf.bprintf head "%x\r\n" n;
    slab_add_string s "\r\n";
    write_slab r.sc head s
  end;
  s.len <- s.room

let start_now r =
  let buf = Buffer.create 256 in
  add_head buf ~status:r.status ~content_type:stream_content_type
    ~keep_alive:r.keep_alive (fun buf ->
      Buffer.add_string buf "transfer-encoding: chunked\r\n");
  write_all r.sc (Buffer.contents buf);
  r.started <- true

let stream_write r s =
  if r.finished then invalid_arg "Http.stream_write: finished";
  slab_add_string r.body s;
  if r.started then send_chunk r
  else if slab_length r.body >= stream_threshold then begin
    start_now r;
    send_chunk r
  end

let stream_finish r =
  if not r.finished then begin
    r.finished <- true;
    if r.started then write_all r.sc "0\r\n\r\n"
    else
      respond_slab r.sc ~content_type:stream_content_type ~keep_alive:r.keep_alive
        ~status:r.status r.body
  end

(* ------------------------------------------------------------------ *)
(* Client half                                                          *)
(* ------------------------------------------------------------------ *)

(* The router reuses this module's buffered conn for its proxy legs:
   same framing code on both sides of the wire means a response the
   backend can emit is by construction one the router can parse, and
   anything else is a deterministic [Bad_request] (mapped to 502
   upstream), never a hang — both directions are bounded by the socket
   timeouts set in [connect]. *)

type response = {
  status : int;
  reason : string;
  rheaders : (string * string) list;  (* names lowercased *)
  body : string;
}

let rheader r name = List.assoc_opt name r.rheaders

let connect ?scratch ?write_fault ?read_fault ~host ~port ~timeout () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  conn_of_fd ~key:k_client_rbuf ?scratch ?write_fault ?read_fault fd

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c ~meth ~target ~headers ~framed s =
  let head = Buffer.create 256 in
  Printf.bprintf head "%s %s HTTP/1.1\r\n" meth target;
  List.iter (fun (k, v) -> Printf.bprintf head "%s: %s\r\n" k v) headers;
  if framed then Printf.bprintf head "content-length: %d\r\n" (slab_length s);
  Buffer.add_string head "\r\n";
  write_slab c head s

let send_request_slab c ~meth ~target ?(headers = []) s =
  send c ~meth ~target ~headers ~framed:true s

let send_request c ~meth ~target ?(headers = []) ?body () =
  send c ~meth ~target ~headers ~framed:(body <> None)
    (slab_of_string (Option.value body ~default:""))

(* Exactly [n] more body bytes into the slab: whatever the connection
   buffer already holds, then straight from the socket. EOF first raises
   [Disconnect] (a backend that died mid-response is a retryable IO
   failure, not a protocol error). *)
let read_exact_into c s n =
  reserve s n;
  let off = min n (c.rlen - c.rpos) in
  Bytes.blit c.rbuf c.rpos s.buf s.len off;
  c.rpos <- c.rpos + off;
  let stop = s.len + n in
  s.len <- s.len + off;
  while s.len < stop do
    match read_into c s.buf s.len (stop - s.len) with
    | 0 -> raise Disconnect
    | k -> s.len <- s.len + k
  done

let read_body_into c s =
  read_exact_into c s c.unread;
  c.unread <- 0

let next_byte c =
  if c.rpos >= c.rlen && not (refill c) then raise Disconnect;
  let b = Bytes.get c.rbuf c.rpos in
  c.rpos <- c.rpos + 1;
  b

(* A response body is bounded only by what a string can hold, its head by
   16 KiB. *)
let max_body = Sys.max_string_length

let read_to_eof c s =
  let rec go () =
    if c.rpos < c.rlen then begin
      let n = c.rlen - c.rpos in
      reserve s n;
      Bytes.blit c.rbuf c.rpos s.buf s.len n;
      s.len <- s.len + n;
      c.rpos <- c.rlen
    end;
    if slab_length s > max_body then
      raise (Bad_request "response body too large");
    if refill c then go ()
  in
  go ()

let read_chunked c s =
  let rec chunks () =
    let lbudget = ref 256 in
    let line = read_line c ~budget:lbudget ~at_start:false in
    let size =
      let line =
        match String.index_opt line ';' with
        | Some i -> String.sub line 0 i (* drop any chunk extension *)
        | None -> line
      in
      match int_of_string_opt ("0x" ^ String.trim line) with
      | Some n when n >= 0 -> n
      | _ ->
        raise (Bad_request (Printf.sprintf "malformed chunk size %S" line))
    in
    if slab_length s + size > max_body then
      raise (Bad_request "response body too large");
    if size > 0 then begin
      read_exact_into c s size;
      let cr = next_byte c in
      let lf = next_byte c in
      if cr <> '\r' || lf <> '\n' then
        raise
          (Bad_request
             (Printf.sprintf "malformed chunk terminator %S"
                (String.init 2 (fun i -> if i = 0 then cr else lf))));
      chunks ()
    end
    else begin
      (* trailer section, up to the closing empty line *)
      let tbudget = ref 1024 in
      let rec trailers () =
        if read_line c ~budget:tbudget ~at_start:false <> "" then trailers ()
      in
      trailers ()
    end
  in
  chunks ()

let read_response_parts c s =
  let budget = ref 16384 in
  let status_line = read_line c ~budget ~at_start:true in
  let status, reason =
    match String.split_on_char ' ' status_line with
    | version :: code :: rest
      when String.length version >= 8 && String.sub version 0 7 = "HTTP/1." -> (
      match int_of_string_opt code with
      | Some s when s >= 100 && s <= 599 -> (s, String.concat " " rest)
      | _ ->
        raise
          (Bad_request (Printf.sprintf "malformed status line %S" status_line)))
    | _ ->
      raise (Bad_request (Printf.sprintf "malformed status line %S" status_line))
  in
  let rheaders = read_header_block c ~budget in
  let find name = List.assoc_opt name rheaders in
  let chunked =
    match find "transfer-encoding" with
    | Some v -> String.lowercase_ascii (String.trim v) <> "identity"
    | None -> false
  in
  (if chunked then read_chunked c s
   else
     match find "content-length" with
     | Some v -> (
       match int_of_string_opt (String.trim v) with
       | Some n when n >= 0 && n <= max_body -> read_exact_into c s n
       | Some n when n >= 0 -> raise (Bad_request "response body too large")
       | Some _ | None -> raise (Bad_request "malformed Content-Length"))
     | None -> read_to_eof c s);
  (status, reason, rheaders)

let read_response_into c s =
  let status, _, rheaders = read_response_parts c s in
  (status, rheaders)

(* No room: a Content-Length body is read into a buffer of exactly its
   length, which becomes the string without a copy. *)
let read_response c =
  let s = slab_of_string "" in
  let status, reason, rheaders = read_response_parts c s in
  { status; reason; rheaders; body = slab_contents s }
