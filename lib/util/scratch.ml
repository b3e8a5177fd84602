type slot =
  | Floats of float array
  | Ints of int array
  | Bools of bool array
  | Bytes of bytes
  | Buffer of Buffer.t

type key = int

type t = (key * int, slot) Hashtbl.t

let create () = Hashtbl.create 16

let retain_limit = 4 lsl 20

let next_key = Atomic.make 0

let key () = Atomic.fetch_and_add next_key 1

(* The slot's buffer if [fits] accepts it, else a fresh [make ()] that
   replaces it. What a request grows is kept until {!trim}. *)
let borrow t k at ~fits make =
  match Hashtbl.find_opt t (k, at) with
  | Some s when fits s -> s
  | Some _ | None ->
    let s = make () in
    Hashtbl.replace t (k, at) s;
    s

let word = Sys.word_size / 8

let slot_bytes = function
  | Floats a -> 8 * Array.length a
  | Ints a -> word * Array.length a
  | Bools a -> word * Array.length a
  | Bytes b -> Bytes.length b
  | Buffer b -> Buffer.length b

let retained t = Hashtbl.fold (fun _ s acc -> acc + slot_bytes s) t 0

let trim t =
  let total = retained t in
  if total > retain_limit then begin
    let by_size =
      List.sort
        (fun (a, _) (b, _) -> Int.compare b a)
        (Hashtbl.fold (fun k s acc -> (slot_bytes s, k) :: acc) t [])
    in
    ignore
      (List.fold_left
         (fun total (bytes, k) ->
           if total > retain_limit then begin
             Hashtbl.remove t k;
             total - bytes
           end
           else total)
         total by_size)
  end

let floats t k ?(at = 0) n =
  match
    borrow t k at
      ~fits:(function Floats a -> Array.length a >= n | _ -> false)
      (fun () -> Floats (Array.make n 0.0))
  with
  | Floats a -> a
  | _ -> assert false

let ints t k ?(at = 0) n =
  match
    borrow t k at
      ~fits:(function Ints a -> Array.length a >= n | _ -> false)
      (fun () -> Ints (Array.make n 0))
  with
  | Ints a -> a
  | _ -> assert false

let bools t k ?(at = 0) n =
  match
    borrow t k at
      ~fits:(function Bools a -> Array.length a >= n | _ -> false)
      (fun () -> Bools (Array.make n false))
  with
  | Bools a -> a
  | _ -> assert false

let bytes t k n =
  match
    borrow t k 0
      ~fits:(function Bytes b -> Bytes.length b >= n | _ -> false)
      (fun () -> Bytes (Bytes.create n))
  with
  | Bytes b -> b
  | _ -> assert false

let buffer t k =
  match
    borrow t k 0
      ~fits:(function Buffer _ -> true | _ -> false)
      (fun () -> Buffer (Buffer.create 4096))
  with
  | Buffer b ->
    Buffer.clear b;
    b
  | _ -> assert false
