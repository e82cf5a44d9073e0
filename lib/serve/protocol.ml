module Sexp = Opprox_util.Sexp
module Diagnostic = Opprox_analysis.Diagnostic
module Optimizer = Opprox.Optimizer

let version = 1
let max_frame_bytes = 16 * 1024 * 1024

type request = {
  app : string;
  input : float array option;
  budget : float;
  deadline_ms : float option;
  models_hash : string option;
  no_cache : bool;
}

let request ?input ?deadline_ms ?models_hash ?(no_cache = false) ~app ~budget () =
  { app; input; budget; deadline_ms; models_hash; no_cache }

(* Where the plan came from, most- to least-precomputed: the persistent
   corpus (exact fingerprint), a nearest-neighbour corpus cell (tightened
   budget), the in-memory LRU, or a fresh solve. *)
type cache_status = Corpus | Nearest | Hit | Miss

type telemetry = {
  t_app : string;
  t_input : float array option;
  plan_budget : float;
  phase : int;
  n_phases : int;
  drift : float;
  drift_tol : float;
  observed_work : float;
  predicted_work : float;
  remaining_budget : float;
}

let telemetry ?input ~app ~plan_budget ~phase ~n_phases ~drift ~drift_tol ~observed_work
    ~predicted_work ~remaining_budget () =
  {
    t_app = app;
    t_input = input;
    plan_budget;
    phase;
    n_phases;
    drift;
    drift_tol;
    observed_work;
    predicted_work;
    remaining_budget;
  }

type plan_delta = No_change | Replan of { from_phase : int; plan : Optimizer.plan }

type response =
  | Plan of {
      plan : Optimizer.plan;
      cache : cache_status;
      models_hash : string;
      elapsed_ms : float;
    }
  | PlanDelta of { delta : plan_delta; elapsed_ms : float }
  | Error of Diagnostic.t list
  | Timeout of { elapsed_ms : float; deadline_ms : float }
  | Overloaded of { inflight : int; limit : int }

(* ---------------------------------------------------------------- codecs *)

let opt name conv = function None -> [] | Some v -> [ (name, conv v) ]

let request_to_sexp r =
  Sexp.record
    ([ ("v", Sexp.int version); ("app", Sexp.string r.app); ("budget", Sexp.float r.budget) ]
    @ opt "input" Sexp.float_array r.input
    @ opt "deadline_ms" Sexp.float r.deadline_ms
    @ opt "models_hash" Sexp.string r.models_hash
    @ (if r.no_cache then [ ("no_cache", Sexp.atom "true") ] else []))

let frame_version sexp =
  match Sexp.field_opt sexp "v" with None -> version | Some v -> Sexp.to_int v

(* Plan requests predate the [kind] tag and stay untagged on the wire;
   every other frame shape carries [(kind ...)] so the server can
   dispatch before decoding the payload. *)
let frame_kind sexp =
  match Sexp.field_opt sexp "kind" with
  | None -> "request"
  | Some k -> Sexp.to_string_atom k

let telemetry_to_sexp t =
  Sexp.record
    ([
       ("v", Sexp.int version);
       ("kind", Sexp.atom "telemetry");
       ("app", Sexp.string t.t_app);
       ("plan_budget", Sexp.float t.plan_budget);
       ("phase", Sexp.int t.phase);
       ("n_phases", Sexp.int t.n_phases);
       ("drift", Sexp.float t.drift);
       ("drift_tol", Sexp.float t.drift_tol);
       ("observed_work", Sexp.float t.observed_work);
       ("predicted_work", Sexp.float t.predicted_work);
       ("remaining_budget", Sexp.float t.remaining_budget);
     ]
    @ opt "input" Sexp.float_array t.t_input)

let telemetry_of_sexp sexp =
  (match frame_kind sexp with
  | "telemetry" -> ()
  | k -> failwith (Printf.sprintf "telemetry: frame kind %S is not telemetry" k));
  {
    t_app = Sexp.to_string_atom (Sexp.field sexp "app");
    t_input = Option.map Sexp.to_float_array (Sexp.field_opt sexp "input");
    plan_budget = Sexp.to_float (Sexp.field sexp "plan_budget");
    phase = Sexp.to_int (Sexp.field sexp "phase");
    n_phases = Sexp.to_int (Sexp.field sexp "n_phases");
    drift = Sexp.to_float (Sexp.field sexp "drift");
    drift_tol = Sexp.to_float (Sexp.field sexp "drift_tol");
    observed_work = Sexp.to_float (Sexp.field sexp "observed_work");
    predicted_work = Sexp.to_float (Sexp.field sexp "predicted_work");
    remaining_budget = Sexp.to_float (Sexp.field sexp "remaining_budget");
  }

let request_of_sexp sexp =
  {
    app = Sexp.to_string_atom (Sexp.field sexp "app");
    budget = Sexp.to_float (Sexp.field sexp "budget");
    input = Option.map Sexp.to_float_array (Sexp.field_opt sexp "input");
    deadline_ms = Option.map Sexp.to_float (Sexp.field_opt sexp "deadline_ms");
    models_hash = Option.map Sexp.to_string_atom (Sexp.field_opt sexp "models_hash");
    no_cache =
      (match Sexp.field_opt sexp "no_cache" with
      | Some (Sexp.Atom "true") -> true
      | Some (Sexp.Atom "false") | None -> false
      | Some s -> failwith (Printf.sprintf "request: bad no_cache %s" (Sexp.to_string s)));
  }

let cache_status_string = function
  | Corpus -> "corpus"
  | Nearest -> "nn"
  | Hit -> "hit"
  | Miss -> "miss"

(* CLI-facing naming: what a user calls the place an answer came from. *)
let cache_source_string = function
  | Corpus -> "corpus"
  | Nearest -> "nn"
  | Hit -> "cache"
  | Miss -> "solved"

let response_to_sexp = function
  | Plan { plan; cache; models_hash; elapsed_ms } ->
      Sexp.record
        [
          ("v", Sexp.int version);
          ("status", Sexp.atom "plan");
          ("cache", Sexp.atom (cache_status_string cache));
          ("models_hash", Sexp.string models_hash);
          ("elapsed_ms", Sexp.float elapsed_ms);
          ("plan", Optimizer.plan_to_sexp plan);
        ]
  | PlanDelta { delta = No_change; elapsed_ms } ->
      Sexp.record
        [
          ("v", Sexp.int version);
          ("status", Sexp.atom "plan_delta");
          ("delta", Sexp.atom "no_change");
          ("elapsed_ms", Sexp.float elapsed_ms);
        ]
  | PlanDelta { delta = Replan { from_phase; plan }; elapsed_ms } ->
      Sexp.record
        [
          ("v", Sexp.int version);
          ("status", Sexp.atom "plan_delta");
          ("delta", Sexp.atom "replan");
          ("from_phase", Sexp.int from_phase);
          ("elapsed_ms", Sexp.float elapsed_ms);
          ("plan", Optimizer.plan_to_sexp plan);
        ]
  | Error diags ->
      Sexp.record
        [
          ("v", Sexp.int version);
          ("status", Sexp.atom "error");
          ("diagnostics", Sexp.list (List.map Diagnostic.to_sexp diags));
        ]
  | Timeout { elapsed_ms; deadline_ms } ->
      Sexp.record
        [
          ("v", Sexp.int version);
          ("status", Sexp.atom "timeout");
          ("elapsed_ms", Sexp.float elapsed_ms);
          ("deadline_ms", Sexp.float deadline_ms);
        ]
  | Overloaded { inflight; limit } ->
      Sexp.record
        [
          ("v", Sexp.int version);
          ("status", Sexp.atom "overloaded");
          ("inflight", Sexp.int inflight);
          ("limit", Sexp.int limit);
        ]

let response_of_sexp sexp =
  match Sexp.to_string_atom (Sexp.field sexp "status") with
  | "plan" ->
      Plan
        {
          plan = Optimizer.plan_of_sexp (Sexp.field sexp "plan");
          cache =
            (match Sexp.to_string_atom (Sexp.field sexp "cache") with
            | "corpus" -> Corpus
            | "nn" -> Nearest
            | "hit" -> Hit
            | "miss" -> Miss
            | s -> failwith (Printf.sprintf "response: bad cache status %S" s));
          models_hash = Sexp.to_string_atom (Sexp.field sexp "models_hash");
          elapsed_ms = Sexp.to_float (Sexp.field sexp "elapsed_ms");
        }
  | "plan_delta" ->
      let elapsed_ms = Sexp.to_float (Sexp.field sexp "elapsed_ms") in
      let delta =
        match Sexp.to_string_atom (Sexp.field sexp "delta") with
        | "no_change" -> No_change
        | "replan" ->
            Replan
              {
                from_phase = Sexp.to_int (Sexp.field sexp "from_phase");
                plan = Optimizer.plan_of_sexp (Sexp.field sexp "plan");
              }
        | s -> failwith (Printf.sprintf "response: bad plan delta %S" s)
      in
      PlanDelta { delta; elapsed_ms }
  | "error" ->
      Error (List.map Diagnostic.of_sexp (Sexp.to_list (Sexp.field sexp "diagnostics")))
  | "timeout" ->
      Timeout
        {
          elapsed_ms = Sexp.to_float (Sexp.field sexp "elapsed_ms");
          deadline_ms = Sexp.to_float (Sexp.field sexp "deadline_ms");
        }
  | "overloaded" ->
      Overloaded
        {
          inflight = Sexp.to_int (Sexp.field sexp "inflight");
          limit = Sexp.to_int (Sexp.field sexp "limit");
        }
  | s -> failwith (Printf.sprintf "response: unknown status %S" s)

(* --------------------------------------------------------------- framing *)

(* EINTR-safe full write: [Unix.write] may transfer a prefix. *)
let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

(* Length prefix plus payload, as one string ready for the socket. *)
let encode_raw_frame payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    failwith (Printf.sprintf "Protocol.write_frame: payload of %d bytes exceeds %d" len
                max_frame_bytes);
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  Bytes.unsafe_to_string frame

let encode_frame sexp = encode_raw_frame (Sexp.to_string sexp)

let write_raw_frame fd payload =
  let frame = encode_raw_frame payload in
  write_all fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

let write_frame fd sexp = write_raw_frame fd (Sexp.to_string sexp)

(* The payload length a 4-byte prefix announces, checked before anything
   is allocated for it. *)
let frame_length header off =
  let len = Int32.to_int (Bytes.get_int32_be header off) in
  if len < 0 || len > max_frame_bytes then
    failwith (Printf.sprintf "frame length %d outside [0, %d]" len max_frame_bytes);
  len

let truncated_prefix n = Printf.sprintf "frame truncated in length prefix (%d of 4 bytes)" n
let truncated_payload n len = Printf.sprintf "frame truncated (%d of %d payload bytes)" n len

(* Read exactly [len] bytes; [`Eof n] reports how many arrived first. *)
let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then `Ok buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame fd =
  match read_exact fd 4 with
  | `Eof 0 -> None
  | `Eof n -> failwith (truncated_prefix n)
  | `Ok header -> (
      let len = frame_length header 0 in
      match read_exact fd len with
      | `Eof n -> failwith (truncated_payload n len)
      | `Ok payload -> Some (Sexp.of_string (Bytes.unsafe_to_string payload)))

module Splitter = struct
  (* Live bytes are [buf.[lo] .. buf.[hi - 1]]; consumed frames advance
     [lo], and the window slides back to 0 when a read needs room. *)
  type t = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

  let min_room = 4096
  let create () = { buf = Bytes.create min_room; lo = 0; hi = 0 }
  let buffered t = t.hi - t.lo

  let read t fd =
    if Bytes.length t.buf - t.hi < min_room then begin
      let live = buffered t in
      let size = ref (Bytes.length t.buf) in
      while !size - live < min_room do
        size := 2 * !size
      done;
      let buf = if !size = Bytes.length t.buf then t.buf else Bytes.create !size in
      Bytes.blit t.buf t.lo buf 0 live;
      t.buf <- buf;
      t.lo <- 0;
      t.hi <- live
    end;
    let n = Unix.read fd t.buf t.hi (Bytes.length t.buf - t.hi) in
    t.hi <- t.hi + n;
    n

  let next t =
    let have = buffered t in
    if have < 4 then None
    else
      let len = frame_length t.buf t.lo in
      if have < 4 + len then None
      else begin
        let payload = Bytes.sub_string t.buf (t.lo + 4) len in
        t.lo <- t.lo + 4 + len;
        Some (Sexp.of_string payload)
      end

  let finish t =
    match buffered t with
    | 0 -> ()
    | n when n < 4 -> failwith (truncated_prefix n)
    | n -> failwith (truncated_payload (n - 4) (frame_length t.buf t.lo))
end
