(** The one decimal parser for numeric CSV and ARFF cells.

    [parse_slice b lo hi cells k] reads the text of [b] from [lo] to [hi]
    (exclusive) and, when it is a number, writes it to [cells.(k)] and
    returns [true]; otherwise it returns [false] and leaves [cells]
    alone. The number written is [float_of_string_opt]'s, bit for bit,
    on every input. A plain decimal whose digits, read as one integer,
    stay below 2{^53} and whose net power of ten lies in [-22, 22] (say
    [-12.375] or [4.2e-3]) takes Clinger's exact fast path: it never
    reaches [strtod] and allocates nothing. All other text, such as
    longer digit strings, [_], hex, [nan], [inf], surrounding spaces or
    the empty slice, is copied out and handed to [float_of_string_opt]
    unchanged. Raises [Invalid_argument] when the slice is not within
    [b] or [k] not within [cells]. *)
val parse_slice : bytes -> int -> int -> float array -> int -> bool

(** [parse s] is {!parse_slice} over the whole of [s]: exactly
    [float_of_string_opt s]. *)
val parse : string -> float option
