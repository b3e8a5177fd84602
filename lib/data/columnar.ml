exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Version byte 1; the \r\n tail catches text-mode newline mangling the
   way PNG's magic does. *)
let magic = "pncol\x01\r\n"

let default_group_size = 8192

(* A corrupted header must not drive a huge allocation before its
   checksum is verified, so every size field is capped at read time. *)
let max_group_size = 1 lsl 24

let max_header_len = 1 lsl 24

let max_string_len = 1 lsl 24

let max_rows = 1 lsl 48

type schema = {
  n_rows : int;
  group_size : int;
  n_groups : int;
  has_labels : bool;
  classes : string array;
  attrs : Attribute.t array;
}

(* Dictionary codes are stored at the narrowest width the arity fits. *)
let width_of_arity arity =
  if arity <= 0x100 then 1 else if arity <= 0x10000 then 2 else 4

let groups_of_rows ~group_size n =
  if n = 0 then 0 else ((n - 1) / group_size) + 1

(* Rows a per-group buffer must hold: a header may declare a group size
   far above its row count (up to [max_group_size]), so buffers are
   sized by both. *)
let group_capacity sch = min sch.group_size sch.n_rows

let rows_in_group sch g =
  if g < sch.n_groups - 1 then sch.group_size
  else sch.n_rows - (sch.group_size * (sch.n_groups - 1))

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let add_u8 buf v = Buffer.add_uint8 buf v

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let add_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let le32_string v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.unsafe_to_string b

let add_code buf ~width code =
  match width with
  | 1 -> add_u8 buf code
  | 2 -> Buffer.add_uint16_le buf code
  | _ -> add_u32 buf code

let header_payload ~group_size ~has_labels (ds : Dataset.t) =
  let buf = Buffer.create 1024 in
  let n = Dataset.n_records ds in
  add_u64 buf n;
  add_u32 buf group_size;
  add_u32 buf (groups_of_rows ~group_size n);
  add_u8 buf (if has_labels then 1 else 0);
  add_u32 buf (Array.length ds.Dataset.classes);
  Array.iter (add_str buf) ds.Dataset.classes;
  add_u32 buf (Array.length ds.Dataset.attrs);
  Array.iter
    (fun (a : Attribute.t) ->
      match a.kind with
      | Attribute.Numeric ->
        add_u8 buf 0;
        add_str buf a.name
      | Attribute.Categorical values ->
        add_u8 buf 1;
        add_str buf a.name;
        add_u32 buf (Array.length values);
        Array.iter (add_str buf) values)
    ds.Dataset.attrs;
  Buffer.contents buf

let write ?(group_size = default_group_size) ?missing sink (ds : Dataset.t) =
  if group_size < 1 || group_size > max_group_size then
    invalid_arg "Columnar.write: group_size";
  let n = Dataset.n_records ds in
  let n_attrs = Array.length ds.Dataset.attrs in
  (match missing with
  | None -> ()
  | Some m ->
    if Array.length m <> n_attrs then
      invalid_arg "Columnar.write: missing has one entry per attribute";
    Array.iter
      (function
        | Some mask when Array.length mask <> n ->
          invalid_arg "Columnar.write: missing mask length"
        | Some _ | None -> ())
      m);
  let col_missing j =
    match missing with None -> None | Some m -> m.(j)
  in
  (* Concatenated block-checksum fields, in file order; the footer's
     file CRC covers them, which transitively covers every payload
     byte. *)
  let crcs = Buffer.create 256 in
  let emit_block payload =
    sink payload;
    let crc_field = le32_string (Pn_util.Crc32.string payload) in
    sink crc_field;
    Buffer.add_string crcs crc_field
  in
  sink magic;
  let header = header_payload ~group_size ~has_labels:true ds in
  let hbuf = Buffer.create (String.length header + 8) in
  add_u32 hbuf (String.length header);
  sink (Buffer.contents hbuf);
  emit_block header;
  let n_groups = groups_of_rows ~group_size n in
  let block = Buffer.create (min group_size n * 8) in
  let lwidth = width_of_arity (Array.length ds.Dataset.classes + 1) in
  for g = 0 to n_groups - 1 do
    let base = g * group_size in
    let rows = min group_size (n - base) in
    Buffer.clear block;
    Buffer.add_string block "PNCG";
    add_u32 block g;
    add_u32 block rows;
    emit_block (Buffer.contents block);
    for j = 0 to n_attrs - 1 do
      Buffer.clear block;
      let mask = col_missing j in
      let any_missing =
        match mask with
        | None -> false
        | Some mask ->
          let any = ref false in
          for i = base to base + rows - 1 do
            if mask.(i) then any := true
          done;
          !any
      in
      add_u8 block (if any_missing then 1 else 0);
      (if any_missing then
         let mask = Option.get mask in
         let nbytes = (rows + 7) / 8 in
         for b = 0 to nbytes - 1 do
           let byte = ref 0 in
           for bit = 0 to 7 do
             let i = (b * 8) + bit in
             if i < rows && mask.(base + i) then byte := !byte lor (1 lsl bit)
           done;
           add_u8 block !byte
         done);
      (match ds.Dataset.columns.(j) with
      | Dataset.Num a ->
        for i = base to base + rows - 1 do
          Buffer.add_int64_le block (Int64.bits_of_float a.(i))
        done
      | Dataset.Cat a ->
        let width = width_of_arity (Attribute.arity ds.Dataset.attrs.(j)) in
        for i = base to base + rows - 1 do
          add_code block ~width a.(i)
        done);
      emit_block (Buffer.contents block)
    done;
    Buffer.clear block;
    for i = base to base + rows - 1 do
      add_code block ~width:lwidth ds.Dataset.labels.(i)
    done;
    emit_block (Buffer.contents block)
  done;
  Buffer.clear block;
  Buffer.add_string block "PNCE";
  add_u64 block n;
  add_u32 block (Pn_util.Crc32.string (Buffer.contents crcs));
  sink (Buffer.contents block)

let to_string ?group_size ?missing ds =
  let buf = Buffer.create 4096 in
  write ?group_size ?missing (Buffer.add_string buf) ds;
  Buffer.contents buf

let save ?group_size ?missing ds path =
  Pn_util.Atomic_file.write ~fault_point:"columnar.write" path (fun sink ->
      write ?group_size ?missing sink ds)

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)
(* ------------------------------------------------------------------ *)

type rcol =
  | Rnum of float array
  | Rcat of int array
  | Rskip  (** checksum-verified, never decoded *)

type reader = {
  src : Stream.source;
  sch : schema;
  mutable wanted : bool array;
  (* Decode buffers, length [group_capacity sch], borrowed from [scratch]
     at the first [read_group] (after [set_wanted]) and reused for every
     group. *)
  scratch : Pn_util.Scratch.t;
  mutable cols : rcol array;
  mutable miss : bool array option array;
  mutable labels : int array option;
  mutable block : bytes;
  mutable next_group : int;
  mutable started : bool;
  mutable finished : bool;
  crcs : Buffer.t;
}

let read_exact r buf pos len =
  let off = ref pos and rem = ref len in
  while !rem > 0 do
    let want = Pn_util.Fault.cap "columnar.read" !rem in
    let n = Stream.read_into r.src buf !off want in
    if n = 0 then fail "unexpected end of file";
    off := !off + n;
    rem := !rem - n
  done

(* Little-endian field readers over a header payload string. *)
let str_u8 s pos =
  if !pos >= String.length s then fail "truncated header";
  let v = Char.code s.[!pos] in
  incr pos;
  v

let str_u32 s pos =
  if !pos + 4 > String.length s then fail "truncated header";
  let v = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
  pos := !pos + 4;
  v

let str_u64 s pos =
  if !pos + 8 > String.length s then fail "truncated header";
  let v = String.get_int64_le s !pos in
  pos := !pos + 8;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_rows) > 0 then
    fail "implausible row count";
  Int64.to_int v

let str_string s pos =
  let len = str_u32 s pos in
  if len > max_string_len || !pos + len > String.length s then
    fail "implausible string length %d" len;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let parse_header payload =
  let pos = ref 0 in
  (* [str_*] advance a cursor, so every repeated field is read with an
     explicit in-order loop — [Array.init]'s evaluation order is
     unspecified. *)
  let str_strings count =
    let a = Array.make count "" in
    for i = 0 to count - 1 do
      a.(i) <- str_string payload pos
    done;
    a
  in
  let n_rows = str_u64 payload pos in
  let group_size = str_u32 payload pos in
  if group_size < 1 || group_size > max_group_size then
    fail "implausible group size %d" group_size;
  let n_groups = str_u32 payload pos in
  if n_groups <> groups_of_rows ~group_size n_rows then
    fail "group count %d does not cover %d rows" n_groups n_rows;
  let has_labels =
    match str_u8 payload pos with
    | 0 -> false
    | 1 -> true
    | b -> fail "bad label flag %d" b
  in
  let n_classes = str_u32 payload pos in
  if n_classes > max_group_size then fail "implausible class count %d" n_classes;
  let classes = str_strings n_classes in
  let n_attrs = str_u32 payload pos in
  if n_attrs > 1 lsl 20 then fail "implausible column count %d" n_attrs;
  let attrs = Array.make n_attrs (Attribute.numeric "") in
  for j = 0 to n_attrs - 1 do
    attrs.(j) <-
      (match str_u8 payload pos with
      | 0 -> Attribute.numeric (str_string payload pos)
      | 1 ->
        let name = str_string payload pos in
        let arity = str_u32 payload pos in
        if arity > max_group_size then
          fail "implausible dictionary arity %d" arity;
        Attribute.categorical name (str_strings arity)
      | k -> fail "unknown column kind %d" k)
  done;
  if !pos <> String.length payload then fail "trailing bytes in header";
  { n_rows; group_size; n_groups; has_labels; classes; attrs }

let open_reader ?(scratch = Pn_util.Scratch.create ()) src =
  let crcs = Buffer.create 256 in
  let r0 =
    {
      src;
      scratch;
      sch =
        {
          n_rows = 0;
          group_size = 1;
          n_groups = 0;
          has_labels = false;
          classes = [||];
          attrs = [||];
        };
      wanted = [||];
      cols = [||];
      miss = [||];
      labels = None;
      block = Bytes.create 64;
      next_group = 0;
      started = false;
      finished = false;
      crcs;
    }
  in
  let b = r0.block in
  read_exact r0 b 0 (String.length magic);
  if Bytes.sub_string b 0 (String.length magic) <> magic then
    fail "not a pnc columnar file (bad magic)";
  read_exact r0 b 0 4;
  let hlen = Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF in
  if hlen > max_header_len then fail "implausible header length %d" hlen;
  let hbuf = Bytes.create hlen in
  read_exact r0 hbuf 0 hlen;
  read_exact r0 b 0 4;
  let stored = Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF in
  let payload = Bytes.unsafe_to_string hbuf in
  let actual = Pn_util.Crc32.string payload in
  if stored <> actual then
    fail "header checksum mismatch: stored %08x, content %08x" stored actual;
  Buffer.add_string crcs (le32_string stored);
  let sch = parse_header payload in
  { r0 with sch; wanted = Array.make (Array.length sch.attrs) true }

let schema r = r.sch

let io_retries r = Stream.retries r.src

let set_wanted r mask =
  if r.started then invalid_arg "Columnar.set_wanted: groups already read";
  if Array.length mask <> Array.length r.sch.attrs then
    invalid_arg "Columnar.set_wanted: mask length";
  r.wanted <- Array.copy mask

let k_num = Pn_util.Scratch.key ()
let k_cat = Pn_util.Scratch.key ()
let k_miss = Pn_util.Scratch.key ()
let k_labels = Pn_util.Scratch.key ()
let k_block = Pn_util.Scratch.key ()

let prepare_buffers r =
  let gs = group_capacity r.sch in
  let s = r.scratch in
  r.cols <-
    Array.mapi
      (fun j (a : Attribute.t) ->
        if not r.wanted.(j) then Rskip
        else
          match a.kind with
          | Attribute.Numeric -> Rnum (Pn_util.Scratch.floats s k_num ~at:j gs)
          | Attribute.Categorical _ -> Rcat (Pn_util.Scratch.ints s k_cat ~at:j gs))
      r.sch.attrs;
  r.miss <- Array.make (Array.length r.sch.attrs) None;
  if r.sch.has_labels then r.labels <- Some (Pn_util.Scratch.ints s k_labels gs);
  (* Big enough for the largest block — flag byte + bitmap + 8-byte
     cells — plus the trailing CRC field read in place after it. The
     floor covers the 16-byte group-header and footer reads when the
     group size is tiny. *)
  r.block <-
    Pn_util.Scratch.bytes s k_block (max 16 (1 + ((gs + 7) / 8) + (gs * 8) + 4));
  r.started <- true

(* Read one [len]-byte block payload (at [offset] into [block], for
   payloads whose length depends on a prefix byte already read), verify
   its stored CRC against the bytes, and feed the stored field into the
   running file checksum. *)
let finish_block r ~len =
  let b = r.block in
  read_exact r b len 4;
  let stored = Int32.to_int (Bytes.get_int32_le b len) land 0xFFFFFFFF in
  let actual = Pn_util.Crc32.string ~len (Bytes.unsafe_to_string b) in
  if stored <> actual then
    fail "block checksum mismatch in group %d: stored %08x, content %08x"
      r.next_group stored actual;
  Buffer.add_string r.crcs (le32_string stored)

let get_code b ~width pos =
  match width with
  | 1 -> Bytes.get_uint8 b pos
  | 2 -> Bytes.get_uint16_le b pos
  | _ -> Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

let read_footer r =
  let b = r.block in
  read_exact r b 0 16;
  if Bytes.sub_string b 0 4 <> "PNCE" then fail "bad footer magic";
  let rows = Bytes.get_int64_le b 4 in
  if rows <> Int64.of_int r.sch.n_rows then
    fail "footer row count %Ld does not match header %d" rows r.sch.n_rows;
  let stored = Int32.to_int (Bytes.get_int32_le b 12) land 0xFFFFFFFF in
  let actual = Pn_util.Crc32.string (Buffer.contents r.crcs) in
  if stored <> actual then
    fail "file checksum mismatch: stored %08x, blocks hash to %08x" stored actual;
  if Stream.read_into r.src b 0 1 <> 0 then fail "trailing bytes after footer";
  r.finished <- true

let read_group r =
  if r.finished then None
  else begin
    if not r.started then prepare_buffers r;
    if r.next_group >= r.sch.n_groups then begin
      read_footer r;
      None
    end
    else begin
      let b = r.block in
      (* Group header: magic, index, row count — under its own CRC so a
         flipped row count can never misalign the block reads. *)
      read_exact r b 0 12;
      finish_block r ~len:12;
      if Bytes.sub_string b 0 4 <> "PNCG" then fail "bad group magic";
      let g = Int32.to_int (Bytes.get_int32_le b 4) land 0xFFFFFFFF in
      if g <> r.next_group then
        fail "group %d found where group %d was expected" g r.next_group;
      let rows = Int32.to_int (Bytes.get_int32_le b 8) land 0xFFFFFFFF in
      if rows <> rows_in_group r.sch r.next_group then
        fail "group %d has %d rows, expected %d" g rows
          (rows_in_group r.sch r.next_group);
      let nbytes_bitmap = (rows + 7) / 8 in
      Array.iteri
        (fun j (a : Attribute.t) ->
          read_exact r b 0 1;
          let has_missing =
            match Bytes.get_uint8 b 0 with
            | 0 -> false
            | 1 -> true
            | v -> fail "bad missing flag %d in group %d" v g
          in
          let bitmap_len = if has_missing then nbytes_bitmap else 0 in
          let cell_width =
            match a.kind with
            | Attribute.Numeric -> 8
            | Attribute.Categorical values ->
              width_of_arity (Array.length values)
          in
          let data_len = rows * cell_width in
          read_exact r b 1 (bitmap_len + data_len);
          finish_block r ~len:(1 + bitmap_len + data_len);
          (match (r.cols.(j), has_missing) with
          | Rskip, _ -> ()
          | (Rnum _ | Rcat _), true ->
            let mask =
              match r.miss.(j) with
              | Some m -> m
              | None ->
                let m =
                  Pn_util.Scratch.bools r.scratch k_miss ~at:j (group_capacity r.sch)
                in
                r.miss.(j) <- Some m;
                m
            in
            for i = 0 to rows - 1 do
              mask.(i) <-
                (Bytes.get_uint8 b (1 + (i lsr 3)) lsr (i land 7)) land 1 = 1
            done
          | (Rnum _ | Rcat _), false -> r.miss.(j) <- None);
          match r.cols.(j) with
          | Rskip -> ()
          | Rnum dst ->
            let base = 1 + bitmap_len in
            for i = 0 to rows - 1 do
              dst.(i) <-
                Int64.float_of_bits (Bytes.get_int64_le b (base + (i lsl 3)))
            done
          | Rcat dst ->
            let base = 1 + bitmap_len in
            let arity =
              match a.kind with
              | Attribute.Categorical values -> Array.length values
              | Attribute.Numeric -> assert false
            in
            for i = 0 to rows - 1 do
              let code = get_code b ~width:cell_width (base + (i * cell_width)) in
              if code >= arity then
                fail "dictionary code %d out of range in group %d column %d"
                  code g j;
              dst.(i) <- code
            done)
        r.sch.attrs;
      (if r.sch.has_labels then begin
         let n_classes = Array.length r.sch.classes in
         let lwidth = width_of_arity (n_classes + 1) in
         let len = rows * lwidth in
         read_exact r b 0 len;
         finish_block r ~len;
         let dst = Option.get r.labels in
         for i = 0 to rows - 1 do
           let code = get_code b ~width:lwidth (i * lwidth) in
           if code > n_classes then
             fail "label code %d out of range in group %d" code g;
           dst.(i) <- (if code = n_classes then -1 else code)
         done
       end);
      r.next_group <- r.next_group + 1;
      Some rows
    end
  end

let num_col r j =
  match r.cols.(j) with
  | Rnum a -> a
  | Rcat _ | Rskip -> invalid_arg "Columnar.num_col"

let cat_col r j =
  match r.cols.(j) with
  | Rcat a -> a
  | Rnum _ | Rskip -> invalid_arg "Columnar.cat_col"

let col_missing r j = r.miss.(j)

let group_labels r = r.labels

(* ------------------------------------------------------------------ *)
(* Whole-file loads                                                     *)
(* ------------------------------------------------------------------ *)

let load_source ?(policy = Ingest_report.Strict) src =
  let r = open_reader src in
  let sch = r.sch in
  if not sch.has_labels then
    fail "file carries no labels; cannot rebuild a dataset";
  let rows =
    Rows.create ~policy ~where:"row" ~error:(fun msg -> Corrupt msg) ~capacity:sch.n_rows
      Rows.Load sch.attrs
  in
  let rec groups () =
    match read_group r with
    | None -> ()
    | Some n ->
      Rows.append rows ~rows:n
        ~columns:
          (Array.map
             (function
               | Rnum a -> Dataset.Num a
               | Rcat a -> Dataset.Cat a
               | Rskip -> assert false)
             r.cols)
        ~masks:r.miss ~labels:(Option.get r.labels);
      groups ()
  in
  groups ();
  let report = Rows.report rows in
  Ingest_report.add_io_retries report (io_retries r);
  Rows.decide rows ~first:1;
  (Rows.dataset rows ~attrs:sch.attrs ~classes:sch.classes, report)

let load_with_report ?policy path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load_source ?policy (Stream.of_channel ic))

let load ?policy path = fst (load_with_report ?policy path)

let of_string ?policy s = fst (load_source ?policy (Stream.of_string s))
