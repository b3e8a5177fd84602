(** The one decimal parser for numeric CSV and ARFF cells.

    [parse s] is [float_of_string_opt s], bit for bit, on every input.
    A plain decimal whose digits, read as one integer, stay below 2{^53}
    and whose net power of ten lies in [-22, 22] (say [-12.375] or
    [4.2e-3]) takes Clinger's exact fast path and never reaches
    [strtod]. All other text, such as longer digit strings, [_], hex,
    [nan], [inf], surrounding spaces or the empty string, is handed to
    [float_of_string_opt] unchanged. *)
val parse : string -> float option
