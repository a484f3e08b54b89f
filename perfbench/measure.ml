(** Clocks, order statistics, the in-memory span recorder and the result
    line. Everything here runs on the measuring domain only. *)

let now () = Daisy_support.Util.monotonic_s ()

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

(** Percentile ([q] in [0, 1]) of an unsorted list, interpolating
    linearly between the two nearest ranks. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float_of_int (Array.length a - 1) in
      let i = truncate h in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

(** Quantile ([q] in (0, 1)) of an unsorted list by the Harrell–Davis
    estimator: a mean of every order statistic, the [i]-th of [n]
    weighted by the mass of Beta((n+1)q, (n+1)(1-q)) on
    [((i-1)/n, i/n)]. Each value the end-to-end percentiles rank is a
    noisy minimum; this weighs several neighbours of the rank instead
    of one or two, so one unit's noise moves the result less. The
    Beta masses are integrated numerically (midpoint rule). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | [ x ] -> x
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a and steps = 32 in
      let alpha = float_of_int (n + 1) *. q
      and beta = float_of_int (n + 1) *. (1.0 -. q) in
      let log_density x =
        ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x))
      in
      let grid =
        Array.init (n * steps) (fun k ->
            log_density ((float_of_int k +. 0.5) /. float_of_int (n * steps)))
      in
      let top = Array.fold_left Float.max neg_infinity grid in
      let weight = Array.make n 0.0 in
      Array.iteri
        (fun k l -> weight.(k / steps) <- weight.(k / steps) +. exp (l -. top))
        grid;
      let total = Array.fold_left ( +. ) 0.0 weight in
      let acc = ref 0.0 in
      Array.iteri (fun i w -> acc := !acc +. (w *. a.(i))) weight;
      !acc /. total

let sum xs = List.fold_left ( +. ) 0.0 xs
let geomean xs = Daisy_support.Util.geomean xs

(** Peak resident set size in MB ([VmHWM]); the major heap's peak when
    [/proc] is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d kB"
                  (fun kb -> Some (float_of_int kb /. 1024.0))
              else scan ()
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  req : int;  (** request id ([-1] outside the serve workload) *)
  start : float;
  stop : float;
  alloc_w : float;  (** minor words allocated on this domain inside it *)
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

(** [span name f] runs [f], recording a span when tracing is on. A
    span's parent is the innermost span open on this domain. *)
let span ?(req = -1) name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = Gc.minor_words () in
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        let alloc_w = Gc.minor_words () -. a0 in
        stack := List.tl !stack;
        spans := { id; name; parent; req; start; stop; alloc_w } :: !spans)
      f
  end

(** Record a span whose interval was observed rather than wrapped —
    a request in flight across the generator loop. Returns its id. *)
let record ?(parent = -1) ?(req = -1) name ~start ~stop =
  let id = !next_id in
  incr next_id;
  spans := { id; name; parent; req; start; stop; alloc_w = 0.0 } :: !spans;
  id

type layer = { busy : float; self : float; calls : int; alloc_w : float }

(** Per-name totals over every recorded span. Self time is a span's
    duration minus its children's. *)
let layers () : (string, layer) Hashtbl.t =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
          +. (s.stop -. s.start)))
    !spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let l =
        Option.value
          ~default:{ busy = 0.0; self = 0.0; calls = 0; alloc_w = 0.0 }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        {
          busy = l.busy +. d;
          self = l.self +. self;
          calls = l.calls + 1;
          alloc_w = l.alloc_w +. s.alloc_w;
        })
    !spans;
  tbl

let layer name =
  Option.value
    ~default:{ busy = 0.0; self = 0.0; calls = 0; alloc_w = 0.0 }
    (Hashtbl.find_opt (layers ()) name)

(** Write every span, oldest first, as one JSON object per line. *)
let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \
         \"start\": %.9f, \"end\": %.9f, \"alloc_words\": %.0f}\n"
        s.id s.name s.parent s.req s.start s.stop s.alloc_w)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  per_layer : metric list;
}

(** The end-to-end metrics every workload prints, in one order:
    [units_ms] are the timed work units (their sum is [wall_s]),
    [compile_ms] the compiles among them, [latency_ms] the latencies. *)
let e2e ~setup_s ~units_ms ~compile_ms ~latency_ms ~alloc_mwords ~speedups
    ~spread =
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" (sum units_ms /. 1000.0);
    m "compile_p50_ms" "ms" (quantile 0.5 compile_ms);
    m "compile_p90_ms" "ms" (quantile 0.9 compile_ms);
    m "latency_p50_ms" "ms" (quantile 0.5 latency_ms);
    m "latency_p95_ms" "ms" (quantile 0.95 latency_ms);
    m "alloc_mwords" "Mwords" alloc_mwords;
    m "sim_speedup_geomean" "x" (geomean speedups);
    m "ab_spread_max" "x" spread;
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let json_number v =
  if not (Float.is_finite v) then "-1"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(** The human-readable table, then the result object as the last line
    of standard output. *)
let print_result ~trace (r : result) =
  let metrics = if trace then r.per_layer else r.e2e in
  (* a metric that could not be computed makes the run incorrect *)
  let r =
    if List.for_all (fun x -> Float.is_finite x.value) metrics then r
    else { r with correct = false }
  in
  List.iter
    (fun x -> Printf.printf "  %-40s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "  check: %s, %d attempted, %d failed\n"
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " fields)
