(** [serve]: an in-process daisyd with one worker domain over a sharded
    warm store of real and synthetic entries, driven by an open-loop
    generator that also appends to the store while it reads. *)

module S = Daisy_scheduler
module Pb = Daisy_benchmarks.Polybench
module Variants = Daisy_benchmarks.Variants
module Serve = Daisy.Serve
module P = Serve.Protocol
module Server = Serve.Server
module Client = Serve.Client
module Rng = Daisy_support.Rng
module Ir = Daisy_loopir.Ir

(* ------------------------------------------------------------------ *)
(* The request mix                                                     *)

(* The three kernels of the repository's load generator (bench/loadgen). *)
let loadgen_gemm =
  {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
      for (int i = 0; i < n; i++)
        for (int k = 0; k < n; k++)
          for (int j = 0; j < n; j++)
            C[i][j] += A[i][k] * B[k][j];
    }|}

let loadgen_stencil =
  {|void f(int n, double A[n][n], double B[n][n]) {
      for (int i = 1; i < n - 1; i++)
        for (int j = 1; j < n - 1; j++)
          B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][j+1]
                           + A[i-1][j] + A[i+1][j]);
    }|}

let loadgen_axpy =
  {|void f(int n, double y[n], double x[n]) {
      for (int i = 0; i < n; i++)
        y[i] = y[i] + 2.0 * x[i];
    }|}

type pair = {
  id : int;
  family : string;  (** sources of one family compute the same thing *)
  source : string;
  sizes : (string * int) list;
}

(* One reduced size (a share of the PolyBench simulation sizes), so each
   of the 19 (source, sizes) pairs recurs about 25 times in a 50 s run.
   A second size would cost about the same per request — the store
   query dominates — and halve the samples per pair, so a pair's
   minimum would depend on whether it happened to be sampled in the
   run's fastest seconds. PolyBench gemm and the paper's second gemm
   variant get square sizes so they form an A/B family. *)
let level = 0.1

let pairs : pair list =
  let n base = max 4 (int_of_float (Float.round (base *. level))) in
  let square = List.map (fun k -> (k, n 137.0)) [ "ni"; "nj"; "nk" ] in
  List.map
    (fun (b : Pb.benchmark) ->
      if b.Pb.name = "gemm" then ("gemm", b.Pb.source, square)
      else (b.Pb.name, b.Pb.source, Fixture.scaled ~factor:level b.Pb.sim_sizes))
    Pb.all
  @ [
      ("gemm", Variants.gemm_variant_2_source, square);
      ("loadgen-gemm", loadgen_gemm, [ ("n", n 137.0) ]);
      ("loadgen-stencil", loadgen_stencil, [ ("n", n 262.0) ]);
      ("loadgen-axpy", loadgen_axpy, [ ("n", n 40960.0) ]);
    ]
  |> List.mapi (fun id (family, source, sizes) -> { id; family; source; sizes })

(* ------------------------------------------------------------------ *)
(* Load and store shape                                                *)

(* Synthetic entries next to the real ones. At this size the store
   query is about half of a request's service time on a 2-core VM. *)
let synthetic_entries = 20_000

(* Offered load: a fixed Poisson rate, about half of what one worker
   serves on a 2-core VM, so queueing shows in the tail and not in the
   median. It does not adapt to the program's speed. *)
let rate_hz = 10.0

(* One worker domain. With two, every stop-the-world collection also
   waits for the other busy domain, and on a contended 2-core host the
   per-pair minimum latency doubled in some runs. *)
let workers = 1

(* Requests in flight at once: at most one connection per core. *)
let max_outstanding = 2

(* Every [append_every_s] the generator appends [batch_size] entries;
   the daemon compacts once that many are pending. *)
let append_every_s = 3.0
let batch_size = 8

let perturb rng v = v +. (0.1 *. (Rng.float rng -. 0.5) *. (1.0 +. Float.abs v))

(** Real entries with perturbed embeddings and the same recipes. Their
    structure hashes are negative, so they never collide with a real
    nest's ([Hashtbl.hash] is non-negative). *)
let synthetic ~seed (real : S.Database.entry array) =
  let rng = Rng.of_string (Printf.sprintf "%d/store" seed) in
  List.init synthetic_entries (fun i ->
      let e = real.(Rng.int rng (Array.length real)) in
      {
        e with
        S.Database.source = Printf.sprintf "synthetic:%d" i;
        canon_hash = -(i + 1);
        embedding = Array.map (perturb rng) e.S.Database.embedding;
      })

(** The appended batches with their due times. Their embeddings sit far
    from every real one, so no batch enters a top-k; set-up checks that
    no reference answer changes. *)
let batches ~seed ~seconds (real : S.Database.entry array) =
  let rng = Rng.of_string (Printf.sprintf "%d/appends" seed) in
  let count = int_of_float ((seconds -. 2.0) /. append_every_s) in
  List.init (max 0 count) (fun b ->
      ( float_of_int (b + 1) *. append_every_s,
        List.init batch_size (fun j ->
            let e = real.(Rng.int rng (Array.length real)) in
            {
              e with
              S.Database.source = Printf.sprintf "appended:%d:%d" b j;
              canon_hash = -(synthetic_entries + 1 + (b * batch_size) + j);
              embedding =
                Array.map (fun v -> 100.0 +. perturb rng v) e.S.Database.embedding;
            }) ))

(* ------------------------------------------------------------------ *)
(* Reference answers, computed in-process at set-up                    *)

type reference = {
  program : Ir.program;
  req_sizes : (string * int) list;  (** in the program's parameter order *)
  decisions : (string * string) list;
  cost_ms : float;
}

(* The reply's rendering of a decision (lib/serve/server.ml). *)
let action_string : S.Daisy.action -> string = function
  | `Blas k -> "blas " ^ k
  | `Recipe r -> "recipe " ^ Daisy_transforms.Recipe.to_string r
  | `Unoptimized -> "unoptimized"
  | `Unliftable -> "unliftable"

let answer ~base ~db ~sizes program =
  let o = S.Daisy.schedule_request ~base ~sizes ~db program in
  ( List.map
      (fun (d : S.Daisy.nest_decision) ->
        (d.S.Daisy.label, action_string d.S.Daisy.action))
      o.S.Daisy.report.S.Daisy.decisions,
    o.S.Daisy.predicted_ms )

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type fixture = {
  dir : string;
  socket : string;  (** the daemon's Unix socket *)
  daemon : Server.t Domain.t;
  appender : S.Shardstore.t;  (** the generator's own store handle *)
  refs : reference array;  (** by pair id *)
  batches : (float * S.Database.entry list) list;
  base : S.Common.ctx;
}

let server_config ~socket ~store =
  {
    (Server.default_config (`Unix socket)) with
    Server.jobs = workers;
    db_path = Some store;
    compact_depth = batch_size;
  }

let boot config =
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
  in
  let deadline = Measure.now () +. 30.0 in
  while (not (Atomic.get ready)) && Measure.now () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then failwith "daisyd did not start";
  d

let address (f : fixture) : Server.address = `Unix f.socket

let stop_daemon (f : fixture) =
  (try Client.with_connection (address f) Client.shutdown with _ -> ());
  ignore (Domain.join f.daemon)

let request_of ~client (p : pair) =
  { P.client; sizes = p.sizes; budget = None; deadline_s = None; source = p.source }

(* ------------------------------------------------------------------ *)
(* The open-loop generator                                             *)

type outcome =
  | Reply of P.schedule_reply
  | Shed
  | Refused of string
  | Transport of string

type request = {
  idx : int;
  pair : pair;
  due : float;  (** seconds after the window start *)
  mutable sent : float;
  mutable answered : float;
  mutable outcome : outcome option;
}

type inflight = { fd : Unix.file_descr; r : request }

(** Poisson arrival times in [0, seconds) and, for each, the next pair
    of a sequence of seeded permutations of the mix. *)
let schedule ~seed ~seconds : request list =
  let rng = Rng.of_string (Printf.sprintf "%d/arrivals" seed) in
  let order = ref [] in
  let next_pair () =
    (match !order with [] -> order := Fixture.shuffle rng pairs | _ -> ());
    match !order with
    | p :: rest ->
        order := rest;
        p
    | [] -> assert false
  in
  let rec go t idx acc =
    let t = t -. (log (1.0 -. Rng.float rng) /. rate_hz) in
    if t >= seconds then List.rev acc
    else
      go t (idx + 1)
        ({ idx; pair = next_pair (); due = t; sent = nan; answered = nan;
           outcome = None }
        :: acc)
  in
  go 0.0 0 []

let classify payload =
  match P.parse_response payload with
  | Ok (P.Schedule_reply r) -> Reply r
  | Ok (P.Error_reply { code = P.Busy; _ }) -> Shed
  | Ok (P.Error_reply { code; message; _ }) ->
      Refused (P.string_of_error_code code ^ ": " ^ message)
  | Ok _ -> Transport "reply with the wrong verb"
  | Error m -> Transport m

(** Drive the window: one thread, at most [max_outstanding] connections,
    one fresh connection per request (the daemon's admission unit). A
    request whose due time finds every connection busy is sent late;
    its latency still counts from the due time. *)
let generate (f : fixture) ~t0 ~trace (reqs : request list) =
  let inflight = ref [] in
  let finish (fl : inflight) outcome =
    fl.r.answered <- Measure.now () -. t0;
    fl.r.outcome <- Some outcome;
    (try Unix.close fl.fd with Unix.Unix_error _ -> ());
    inflight := List.filter (fun x -> x.fd != fl.fd) !inflight
  in
  (* serve replies until [deadline] (window seconds), or until a
     connection frees when [for_slot] *)
  let rec service ~for_slot deadline =
    let left = deadline -. (Measure.now () -. t0) in
    let full = List.length !inflight >= max_outstanding in
    if (for_slot && not full) || ((not for_slot) && left <= 0.0) then ()
    else if !inflight = [] then Unix.sleepf (Float.max 0.0 left)
    else begin
      let fds = List.map (fun x -> x.fd) !inflight in
      let ready =
        match Unix.select fds [] [] (if for_slot then 1.0 else left) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          match List.find_opt (fun x -> x.fd == fd) !inflight with
          | None -> ()
          | Some fl ->
              finish fl
                (match P.read_frame ~timeout_s:30.0 fd with
                | Ok payload -> classify payload
                | Error fe -> Transport (P.string_of_frame_error fe)))
        ready;
      service ~for_slot deadline
    end
  in
  let send (r : request) =
    service ~for_slot:true infinity;
    let traced = trace && r.idx mod 2 = 0 in
    if traced then
      ignore
        (Measure.span ~req:r.idx "lang" (fun () ->
             Daisy_lang.Lower.program_of_string r.pair.source));
    r.sent <- Measure.now () -. t0;
    let request =
      P.Schedule
        (request_of
           ~client:(Printf.sprintf "perfbench-%d" (r.idx mod max_outstanding))
           r.pair)
    in
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_UNIX f.socket);
         P.write_frame fd (P.encode_request request)
       with e -> (try Unix.close fd with _ -> ()); raise e);
      fd
    with
    | fd -> inflight := { fd; r } :: !inflight
    | exception e ->
        r.answered <- Measure.now () -. t0;
        r.outcome <- Some (Transport (Printexc.to_string e))
  in
  (* the appender follows the daemon's compactions first, so its
     pending set holds one batch, not every batch so far *)
  let append entries =
    Measure.span "scheduler.shardstore.append" (fun () ->
        ignore (S.Shardstore.refresh f.appender);
        S.Shardstore.append f.appender entries)
  in
  let events =
    List.map (fun r -> (r.due, `Send r)) reqs
    @ List.map (fun (t, b) -> (t, `Append b)) f.batches
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (due, ev) ->
      service ~for_slot:false due;
      match ev with `Send r -> send r | `Append b -> append b)
    events;
  (* drain: whatever has not answered within a minute is lost *)
  let limit = Measure.now () +. 60.0 in
  while !inflight <> [] && Measure.now () < limit do
    service ~for_slot:false (Measure.now () -. t0 +. 0.5)
  done;
  List.iter (fun fl -> finish fl (Transport "no reply within 60 s")) !inflight

let setup ~seed ~seconds dir : fixture =
  let db = Fixture.seed_database () in
  let real = Array.of_list (S.Database.entries db) in
  let entries = Array.to_list real @ synthetic ~seed real in
  let store = Filename.concat dir "store" in
  let appender = S.Shardstore.create store (S.Database.of_entries entries) in
  let batches = batches ~seed ~seconds real in
  let socket = Filename.concat dir "d.sock" in
  let config = server_config ~socket ~store in
  (* the daemon's own evaluation settings *)
  let base =
    S.Common.make_ctx ~threads:config.Server.threads
      ~sample_outer:config.Server.sample_outer
      ?eval_steps:config.Server.eval_steps
      ?eval_deadline:config.Server.eval_deadline_s ~sizes:[] ()
  in
  (* The reference answers come from the same store, through the
     generator's own handle: ties between equally fast candidates are
     broken by the order the store returns exact matches in, which is
     the shard store's order, not the monolithic scan's. The handle is
     wrapped to record every lookup an answer makes. *)
  let store_db = S.Shardstore.as_database appender in
  let lookups = ref [] in
  let recording =
    S.Database.of_backend
      {
        S.Database.b_size = (fun () -> S.Database.size store_db);
        b_entries = (fun () -> S.Database.entries store_db);
        b_query =
          (fun ~k q ->
            lookups := `Query (k, q) :: !lookups;
            S.Database.query_embedding store_db ~k q);
        b_exact =
          (fun h ->
            lookups := `Exact h :: !lookups;
            S.Database.exact_matches_hash store_db h);
        b_fingerprint = (fun () -> S.Database.fingerprint store_db);
      }
  in
  let refs =
    Array.of_list
      (List.map
         (fun p ->
           let program = Daisy_lang.Lower.program_of_string p.source in
           let sizes =
             List.map
               (fun name -> (name, List.assoc name p.sizes))
               program.Ir.size_params
           in
           let decisions, cost_ms =
             answer ~base ~db:recording ~sizes program
           in
           { program; req_sizes = sizes; decisions; cost_ms })
         pairs)
  in
  (* No appended batch can change an answer: every lookup the answers
     made returns the same entries over the real entries with and
     without the batches. The synthetic entries only push the far-away
     batches further down a top-k, so this covers the whole store. *)
  let real_db = S.Database.of_entries (Array.to_list real) in
  let with_batches =
    S.Database.of_entries (Array.to_list real @ List.concat_map snd batches)
  in
  let sources l = List.map (fun (e : S.Database.entry) -> e.S.Database.source) l in
  List.iter
    (function
      | `Query (k, q) ->
          let near db = sources (List.map snd (S.Database.query_embedding db ~k q)) in
          if near real_db <> near with_batches then
            failwith "an appended batch enters a nearest-neighbour answer"
      | `Exact h ->
          let exact db = sources (S.Database.exact_matches_hash db h) in
          if exact real_db <> exact with_batches then
            failwith "an appended batch is an exact match")
    !lookups;
  let f =
    {
      dir;
      socket;
      daemon = boot config;
      appender;
      refs;
      batches;
      (* the clang references after the window need no memo *)
      base = { base with S.Common.sim_memo = None };
    }
  in
  (* a long-running daemon has seen the mix before: one request per
     pair fills its simulation memo before the window *)
  generate { f with batches = [] } ~t0:(Measure.now ()) ~trace:false
    (List.mapi
       (fun idx pair ->
         { idx; pair; due = 0.0; sent = nan; answered = nan; outcome = None })
       pairs);
  f

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let ms x = 1000.0 *. x
let latency r = ms (r.answered -. r.due)

(* Set-ups per run: each builds a store and boots a daemon, so three. *)
let setup_count = 3

(** [setup_count] complete set-ups, each torn down but the last; the
    set-up time is their median. *)
let setups ~seed ~seconds root =
  let times = ref [] and last = ref None in
  for k = 1 to setup_count do
    Option.iter
      (fun f ->
        stop_daemon f;
        Rundir.rm_rf f.dir)
      !last;
    let dir = Filename.concat root (string_of_int k) in
    Sys.mkdir dir 0o755;
    (* the torn-down set-up's store is garbage now; collect it first *)
    Gc.full_major ();
    let t0 = Measure.now () in
    last := Some (setup ~seed ~seconds dir);
    times := (Measure.now () -. t0) :: !times
  done;
  (Measure.median !times, Option.get !last)

let daemon_stats (f : fixture) =
  try Client.with_connection (address f) Client.stats with _ -> []

let stat kvs k = float_of_int (Option.value ~default:0 (List.assoc_opt k kvs))

(** Per-layer figures of the traced run: observed spans for each
    request, then daisy's inner layers replayed on the generator's store
    handle for every answered request. *)
let per_layer (f : fixture) ~t0 ~kvs ~reqs ~replies ~transport ~compared
    ~failed =
  Measure.tracing := true;
  List.iter
    (fun (r, (x : P.schedule_reply)) ->
      let start = t0 +. r.due and stop = t0 +. r.answered in
      let id = Measure.record ~req:r.idx "request" ~start ~stop in
      ignore
        (Measure.record ~parent:id ~req:r.idx "loadgen.late" ~start
           ~stop:(t0 +. r.sent));
      ignore
        (Measure.record ~parent:id ~req:r.idx "serve.eval"
           ~start:(stop -. x.P.eval_s) ~stop))
    replies;
  let db = S.Shardstore.as_database f.appender in
  List.iter
    (fun (r, _) ->
      let ref_ = f.refs.(r.pair.id) in
      Fixture.replay_daisy_layers ~query_span:"scheduler.shardstore.query"
        (S.Common.request_ctx f.base ~sizes:ref_.req_sizes ())
        ~db ref_.program)
    replies;
  Measure.tracing := false;
  let evals = List.map (fun (_, (x : P.schedule_reply)) -> x.P.eval_s) replies in
  let busy name = (Measure.layer name).Measure.busy in
  (* lang spans were taken on even requests only: the overhead figure
     compares them with the odd ones *)
  let traced, plain = List.partition (fun (r, _) -> r.idx mod 2 = 0) replies in
  let p50 rs = Measure.median (List.map (fun (r, _) -> latency r) rs) in
  Layers.metrics
    ~per:(fun span ->
      if span = "scheduler.seed" then float_of_int setup_count else 1.0)
    ([
       ("scheduler.daisy.busy_s", Measure.sum evals);
       ("scheduler.daisy.calls", float_of_int (List.length replies));
       ("scheduler.daisy.residual_s",
        Measure.sum evals -. busy "normalize" -. busy "blas"
        -. busy "embedding" -. busy "scheduler.shardstore.query");
       ("serve.server.eval_p50_ms", Measure.median (List.map ms evals));
       ("serve.server.wait_p95_ms",
        Measure.percentile 0.95
          (List.map
             (fun (r, (x : P.schedule_reply)) -> latency r -. ms x.P.eval_s)
             replies));
       ("serve.client.transport_errors", float_of_int transport);
       ("loadgen.sent", float_of_int (List.length reqs));
       ("loadgen.late_p95_ms",
        Measure.percentile 0.95 (List.map (fun r -> ms (r.sent -. r.due)) reqs));
       ("loadgen.latency_p50_ms",
        Measure.median (List.map (fun (r, _) -> latency r) replies));
       ("loadgen.latency_p95_ms",
        Measure.percentile 0.95 (List.map (fun (r, _) -> latency r) replies));
       ("check.programs", float_of_int compared);
       ("check.failed", float_of_int failed);
       ("trace.unattributed_s", (Measure.layer "request").Measure.self);
       ("trace.overhead_s", (p50 traced -. p50 plain) /. 1000.0);
     ]
    @ List.map
        (fun k -> ("serve.daemon." ^ k, stat kvs k))
        [ "served"; "shed"; "degraded"; "retried"; "failed"; "compactions";
          "shard_swaps"; "reloads" ]
    @ Layers.library_counters ())

let run ~seed ~seconds ~trace : Measure.result =
  Measure.tracing := trace;
  Rundir.with_private_dir "serve" (fun root ->
      let setup_s, f = setups ~seed ~seconds root in
      Measure.tracing := false;
      Layers.reset_counters ();
      (* the discarded set-ups' garbage must not be collected inside
         the window *)
      Gc.compact ();
      let reqs = schedule ~seed ~seconds in
      let alloc0 = (Gc.quick_stat ()).Gc.minor_words in
      let t0 = Measure.now () in
      Measure.tracing := trace;
      generate f ~t0 ~trace reqs;
      Measure.tracing := false;
      (* let the last batch fold before reading the daemon's counters *)
      let limit = Measure.now () +. 10.0 in
      while stat (daemon_stats f) "wal_depth" > 0.0 && Measure.now () < limit do
        Unix.sleepf 0.1
      done;
      let kvs = daemon_stats f in
      stop_daemon f;
      (* the daemon's domains have ended, so their allocation counts *)
      let alloc_words = (Gc.quick_stat ()).Gc.minor_words -. alloc0 in
      (* the output check: every reply not served degraded must equal
         the reference answer; refusals and transport errors fail *)
      let replies =
        List.filter_map
          (fun r -> match r.outcome with Some (Reply x) -> Some (r, x) | _ -> None)
          reqs
      in
      let compared = ref 0 and mismatched = ref 0 in
      List.iter
        (fun (r, (x : P.schedule_reply)) ->
          if not x.P.degraded then begin
            incr compared;
            let ref_ = f.refs.(r.pair.id) in
            let decisions =
              List.map (fun (d : P.decision) -> (d.P.label, d.P.action)) x.P.decisions
            in
            if decisions <> ref_.decisions || x.P.cost_ms <> ref_.cost_ms then begin
              incr mismatched;
              Printf.printf "  failed: request %d (pair %d): reply differs from the reference\n"
                r.idx r.pair.id
            end
          end)
        replies;
      let count p =
        List.length
          (List.filter (fun r -> match r.outcome with Some o -> p o | None -> false) reqs)
      in
      let shed = count (function Shed -> true | _ -> false)
      and refused = count (function Refused _ -> true | _ -> false)
      and transport = count (function Transport _ -> true | _ -> false)
      and degraded = List.length (List.filter (fun (_, (x : P.schedule_reply)) -> x.P.degraded) replies) in
      List.iter
        (fun r ->
          match r.outcome with
          | Some (Refused m | Transport m) -> Printf.printf "  failed: request %d: %s\n" r.idx m
          | _ -> ())
        reqs;
      let sent = List.length reqs and answered = List.length replies in
      if answered + shed + refused + transport <> sent then
        failwith "sent <> answered + shed + refused + transport errors";
      Printf.printf
        "  %d sent = %d answered (%d compared, %d degraded) + %d shed + %d \
         refused + %d transport errors\n"
        sent answered !compared degraded shed refused transport;
      let failed = shed + refused + transport + !mismatched in
      (* Per (source, sizes) pair: its fastest server-side evaluation,
         its fastest latency from the due time, and the cost it was
         served. Like a batch unit's minimum over passes, a pair's
         minimum over its occurrences through the window is what stays
         put from run to run on a noisy host; the raw open-loop
         percentiles are in the traced run. *)
      let per_pair = Hashtbl.create 64 in
      List.iter
        (fun (r, (x : P.schedule_reply)) ->
          if not x.P.degraded then
            let e, l =
              match Hashtbl.find_opt per_pair r.pair.id with
              | Some (e, l, _) -> (Float.min e (ms x.P.eval_s), Float.min l (latency r))
              | None -> (ms x.P.eval_s, latency r)
            in
            Hashtbl.replace per_pair r.pair.id (e, l, x.P.cost_ms))
        replies;
      let column f = Hashtbl.fold (fun _ v acc -> f v :: acc) per_pair [] in
      let served id = Option.map (fun (_, _, c) -> c) (Hashtbl.find_opt per_pair id) in
      let speedups =
        List.filter_map
          (fun p ->
            Option.map
              (fun d ->
                let ref_ = f.refs.(p.id) in
                S.Common.runtime_ms
                  (S.Common.request_ctx f.base ~sizes:ref_.req_sizes ())
                  (S.Baselines.clang_like ref_.program)
                /. d)
              (served p.id))
          pairs
      in
      (* A/B: the gemm family's served costs *)
      let spread =
        match
          List.filter_map
            (fun p -> if p.family = "gemm" then served p.id else None)
            pairs
        with
        | _ :: _ :: _ as costs ->
            List.fold_left Float.max neg_infinity costs
            /. List.fold_left Float.min infinity costs
        | _ -> 1.0
      in
      {
        Measure.correct = failed = 0 && answered > 0;
        attempted = sent;
        failed;
        e2e =
          Measure.e2e ~setup_s
            ~units_ms:(column (fun (e, _, _) -> e))
            ~compile_ms:(column (fun (e, _, _) -> e))
            ~latency_ms:(column (fun (_, l, _) -> l))
            ~alloc_mwords:(alloc_words /. float_of_int (max 1 answered) /. 1e6)
            ~speedups ~spread;
        per_layer =
          (if trace then
             per_layer f ~t0 ~kvs ~reqs ~replies ~transport ~compared:!compared ~failed
           else []);
      })
