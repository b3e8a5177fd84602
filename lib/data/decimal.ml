(* Powers of ten that are exact doubles: 10^k = 5^k * 2^k, and 5^k fits
   the 53-bit significand up to k = 22. *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13;
    1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

let two_53 = 1 lsl 53

let digit s i =
  let c = String.unsafe_get s i in
  if c >= '0' && c <= '9' then Char.code c - 48 else -1

(* Clinger's fast path: the text denotes w * 10^e, with w every written
   digit read as one integer and e the written exponent less the number
   of fraction digits. With w < 2^53 and |e| <= 22, w and 10^|e| are
   exact doubles, so one IEEE multiplication or division rounds w * 10^e
   correctly, as glibc's correctly rounded [strtod] does behind
   [float_of_string_opt]. *)
let parse s =
  let n = String.length s in
  let neg = n > 0 && String.unsafe_get s 0 = '-' in
  let i = ref (if n > 0 && (neg || String.unsafe_get s 0 = '+') then 1 else 0) in
  let w = ref 0 in
  let digits = ref 0 in
  let e = ref 0 in
  (* Past 2^53 the significand only has to stay above the bound, so
     accumulation stops there rather than overflow. *)
  while !i < n && digit s !i >= 0 do
    if !w < two_53 then w := (10 * !w) + digit s !i;
    incr digits;
    incr i
  done;
  if !i < n && String.unsafe_get s !i = '.' then begin
    incr i;
    while !i < n && digit s !i >= 0 do
      if !w < two_53 then w := (10 * !w) + digit s !i;
      incr digits;
      decr e;
      incr i
    done
  end;
  let ok = ref (!digits > 0) in
  if !ok && !i < n && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
  then begin
    incr i;
    let eneg = !i < n && String.unsafe_get s !i = '-' in
    if !i < n && (eneg || String.unsafe_get s !i = '+') then incr i;
    let start = !i in
    let x = ref 0 in
    while !i < n && digit s !i >= 0 do
      if !x < 100_000 then x := (10 * !x) + digit s !i;
      incr i
    done;
    if !i = start then ok := false;
    e := if eneg then !e - !x else !e + !x
  end;
  if !ok && !i = n && !w < two_53 && !e >= -22 && !e <= 22 then begin
    let v =
      if !e >= 0 then float_of_int !w *. exact_pow10.(!e)
      else float_of_int !w /. exact_pow10.(- !e)
    in
    Some (if neg then -.v else v)
  end
  else float_of_string_opt s
