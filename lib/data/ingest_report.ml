type policy = Strict | Skip | Impute

let policy_name = function
  | Strict -> "strict"
  | Skip -> "skip"
  | Impute -> "impute"

let policy_of_string = function
  | "strict" -> Some Strict
  | "skip" -> Some Skip
  | "impute" -> Some Impute
  | _ -> None

type t = {
  mutable rows_read : int;
  mutable rows_kept : int;
  mutable rows_skipped : int;
  mutable cells_imputed : int;
  mutable io_retries : int;
  mutable errors : (int * string) list;
}

let max_errors = 5

let create () =
  {
    rows_read = 0;
    rows_kept = 0;
    rows_skipped = 0;
    cells_imputed = 0;
    io_retries = 0;
    errors = [];
  }

let row_read t = t.rows_read <- t.rows_read + 1

let row_kept t = t.rows_kept <- t.rows_kept + 1

let row_skipped t ~line msg =
  t.rows_skipped <- t.rows_skipped + 1;
  if List.length t.errors < max_errors then t.errors <- t.errors @ [ (line, msg) ]

let add_io_retries t n = t.io_retries <- t.io_retries + n

let pp ppf t =
  Format.fprintf ppf "@[<v>rows read %d, kept %d, skipped %d, cells imputed %d"
    t.rows_read t.rows_kept t.rows_skipped t.cells_imputed;
  if t.io_retries > 0 then Format.fprintf ppf ", io retries %d" t.io_retries;
  List.iter
    (fun (line, msg) -> Format.fprintf ppf "@,  line %d: %s" line msg)
    t.errors;
  if t.rows_skipped > List.length t.errors && t.errors <> [] then
    Format.fprintf ppf "@,  … %d more" (t.rows_skipped - List.length t.errors);
  Format.fprintf ppf "@]"
