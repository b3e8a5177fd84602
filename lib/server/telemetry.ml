type endpoint =
  | Predict
  | Healthz
  | Model_info
  | Metrics
  | Admin
  | Feedback
  | Other

let endpoints = [| Predict; Healthz; Model_info; Metrics; Admin; Feedback; Other |]

let n_endpoints = Array.length endpoints

let endpoint_index = function
  | Predict -> 0
  | Healthz -> 1
  | Model_info -> 2
  | Metrics -> 3
  | Admin -> 4
  | Feedback -> 5
  | Other -> 6

let endpoint_label = function
  | Predict -> "predict"
  | Healthz -> "healthz"
  | Model_info -> "model"
  | Metrics -> "metrics"
  | Admin -> "admin"
  | Feedback -> "feedback"
  | Other -> "other"

let endpoint_of_path = function
  | "/predict" -> Predict
  | "/healthz" -> Healthz
  | "/model" -> Model_info
  | "/metrics" -> Metrics
  | "/feedback" -> Feedback
  | path when String.starts_with ~prefix:"/admin/" path -> Admin
  | _ -> Other

let buckets =
  [| 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5 |]

let n_buckets = Array.length buckets

(* Single-writer per slot: each atomic is only ever written by its
   owning worker domain, so there is no contention — Atomic is used for
   publication (the scraping domain must see a coherent value), not for
   mutual exclusion. *)
type slot = {
  requests : int Atomic.t array;  (* per endpoint *)
  errors : int Atomic.t array;  (* per endpoint, status >= 400 *)
  lat_buckets : int Atomic.t array array;  (* per endpoint x bucket *)
  lat_sum : float Atomic.t array;  (* per endpoint, seconds *)
  rows_in : int Atomic.t;
  rows_out : int Atomic.t;
  io_retries : int Atomic.t;
}

type t = {
  slots : slot array;
  in_flight : int Atomic.t;
}

let make_slot () =
  {
    requests = Array.init n_endpoints (fun _ -> Atomic.make 0);
    errors = Array.init n_endpoints (fun _ -> Atomic.make 0);
    lat_buckets =
      Array.init n_endpoints (fun _ -> Array.init n_buckets (fun _ -> Atomic.make 0));
    lat_sum = Array.init n_endpoints (fun _ -> Atomic.make 0.0);
    rows_in = Atomic.make 0;
    rows_out = Atomic.make 0;
    io_retries = Atomic.make 0;
  }

let create ~slots =
  if slots < 1 then invalid_arg "Telemetry.create: slots";
  { slots = Array.init slots (fun _ -> make_slot ()); in_flight = Atomic.make 0 }

let slot t i = t.slots.(i)

(* Uncontended by construction, so a plain read-modify-write is fine. *)
let bump a = Atomic.set a (Atomic.get a + 1)

let add a n = Atomic.set a (Atomic.get a + n)

let observe s ep ~status ~seconds =
  let e = endpoint_index ep in
  bump s.requests.(e);
  if status >= 400 then bump s.errors.(e);
  Atomic.set s.lat_sum.(e) (Atomic.get s.lat_sum.(e) +. seconds);
  let b = ref 0 in
  while !b < n_buckets && seconds > buckets.(!b) do
    incr b
  done;
  if !b < n_buckets then bump s.lat_buckets.(e).(!b)

let add_rows s ~rows_in ~rows_out =
  add s.rows_in rows_in;
  add s.rows_out rows_out

let add_retries s n = if n > 0 then add s.io_retries n

let in_flight_incr t = ignore (Atomic.fetch_and_add t.in_flight 1)

let in_flight_decr t = ignore (Atomic.fetch_and_add t.in_flight (-1))

let in_flight_count t = Atomic.get t.in_flight

(* ------------------------------------------------------------------ *)
(* Scrape-time merge + exposition text                                  *)
(* ------------------------------------------------------------------ *)

let sum_int t f = Array.fold_left (fun acc s -> acc + Atomic.get (f s)) 0 t.slots

let sum_float t f =
  Array.fold_left (fun acc s -> acc +. Atomic.get (f s)) 0.0 t.slots

let header buf name help kind =
  Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name help name kind

let render t ~prefix ~rows ~extra =
  let buf = Buffer.create 4096 in
  let header name = header buf (prefix ^ name) in
  let per_endpoint name f =
    Array.iter
      (fun ep ->
        let e = endpoint_index ep in
        Printf.bprintf buf "%s%s{endpoint=%S} %d\n" prefix name (endpoint_label ep)
          (sum_int t (fun s -> f s e)))
      endpoints
  in
  let total name f = Printf.bprintf buf "%s%s %d\n" prefix name (sum_int t f) in
  header "requests_total" "Requests handled, by endpoint." "counter";
  per_endpoint "requests_total" (fun s e -> s.requests.(e));
  header "request_errors_total" "Requests answered with a 4xx/5xx status, by endpoint."
    "counter";
  per_endpoint "request_errors_total" (fun s e -> s.errors.(e));
  if rows then begin
    header "rows_in_total" "Data rows decoded from predict bodies (kept or skipped)."
      "counter";
    total "rows_in_total" (fun s -> s.rows_in);
    header "rows_out_total" "Prediction lines written." "counter";
    total "rows_out_total" (fun s -> s.rows_out)
  end;
  header "io_retries_total"
    "Transient IO errors retried with backoff (socket reads and writes)." "counter";
  total "io_retries_total" (fun s -> s.io_retries);
  header "in_flight" "Requests currently being processed." "gauge";
  Printf.bprintf buf "%sin_flight %d\n" prefix (Atomic.get t.in_flight);
  header "request_seconds" "Request latency, by endpoint." "histogram";
  Array.iter
    (fun ep ->
      let e = endpoint_index ep in
      let label = endpoint_label ep in
      let cumulative = ref 0 in
      Array.iteri
        (fun b le ->
          cumulative := !cumulative + sum_int t (fun s -> s.lat_buckets.(e).(b));
          Printf.bprintf buf "%srequest_seconds_bucket{endpoint=%S,le=\"%g\"} %d\n" prefix
            label le !cumulative)
        buckets;
      let count = sum_int t (fun s -> s.requests.(e)) in
      Printf.bprintf buf "%srequest_seconds_bucket{endpoint=%S,le=\"+Inf\"} %d\n" prefix
        label count;
      Printf.bprintf buf "%srequest_seconds_sum{endpoint=%S} %.6f\n" prefix label
        (sum_float t (fun s -> s.lat_sum.(e)));
      Printf.bprintf buf "%srequest_seconds_count{endpoint=%S} %d\n" prefix label count)
    endpoints;
  extra buf;
  Buffer.contents buf
