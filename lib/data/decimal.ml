(* Powers of ten that are exact doubles: 10^k = 5^k * 2^k, and 5^k fits
   the 53-bit significand up to k = 22. *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13;
    1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

let two_53 = 1 lsl 53

let is_digit c = c >= '0' && c <= '9'
let digit b i = Char.code (Bytes.unsafe_get b i) - 48

(* Clinger's fast path: the text denotes w * 10^e, with w every written
   digit read as one integer and e the written exponent less the number
   of fraction digits. With w < 2^53 and |e| <= 22, w and 10^|e| are
   exact doubles, so one IEEE multiplication or division rounds w * 10^e
   correctly, as glibc's correctly rounded [strtod] does behind
   [float_of_string_opt]. The value goes straight into its cell, so the
   fast path boxes nothing. *)
let parse_slice b lo hi cells k =
  if lo < 0 || hi < lo || hi > Bytes.length b || k < 0 || k >= Array.length cells then
    invalid_arg "Decimal.parse_slice";
  let neg = lo < hi && Bytes.unsafe_get b lo = '-' in
  let start = if lo < hi && (neg || Bytes.unsafe_get b lo = '+') then lo + 1 else lo in
  (* Past 2^53 the significand only has to stay above the bound, so
     accumulation stops there rather than overflow. *)
  let w = ref 0 in
  let i = ref start in
  while !i < hi && is_digit (Bytes.unsafe_get b !i) do
    if !w < two_53 then w := (10 * !w) + digit b !i;
    incr i
  done;
  let int_end = !i in
  if !i < hi && Bytes.unsafe_get b !i = '.' then begin
    incr i;
    while !i < hi && is_digit (Bytes.unsafe_get b !i) do
      if !w < two_53 then w := (10 * !w) + digit b !i;
      incr i
    done
  end;
  (* Every written digit, and the fraction's share of the exponent. *)
  let n_frac = if !i = int_end then 0 else !i - int_end - 1 in
  let n_digits = int_end - start + n_frac in
  let e = ref (- n_frac) in
  let ok = ref (n_digits > 0) in
  if !ok && !i < hi && (Bytes.unsafe_get b !i = 'e' || Bytes.unsafe_get b !i = 'E')
  then begin
    incr i;
    let eneg = !i < hi && Bytes.unsafe_get b !i = '-' in
    if !i < hi && (eneg || Bytes.unsafe_get b !i = '+') then incr i;
    let start = !i in
    let x = ref 0 in
    while !i < hi && is_digit (Bytes.unsafe_get b !i) do
      if !x < 100_000 then x := (10 * !x) + digit b !i;
      incr i
    done;
    if !i = start then ok := false;
    e := if eneg then !e - !x else !e + !x
  end;
  if !ok && !i = hi && !w < two_53 && !e >= -22 && !e <= 22 then begin
    let sign = if neg then -1.0 else 1.0 in
    if !e >= 0 then cells.(k) <- sign *. (float_of_int !w *. Array.unsafe_get exact_pow10 !e)
    else cells.(k) <- sign *. (float_of_int !w /. Array.unsafe_get exact_pow10 (- !e));
    true
  end
  else
    match float_of_string_opt (Bytes.sub_string b lo (hi - lo)) with
    | Some v ->
      cells.(k) <- v;
      true
    | None -> false

let parse s =
  let cell = [| 0.0 |] in
  if parse_slice (Bytes.unsafe_of_string s) 0 (String.length s) cell 0 then Some cell.(0)
  else None
