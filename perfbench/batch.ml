(** The pass loop shared by the [repro] and [variants] workloads. *)

(** Units of one kernel family: they share one context per pass. *)
type 'k group = {
  sizes : (string * int) list;
  outcomes : 'k Fixture.outcome list;
}

type run = {
  alloc_words : float list;  (** minor words per untraced pass *)
  memo_hits : int;  (** simulation memo, over the traced passes *)
  memo_misses : int;
  traced_passes : int;
  setup_times : float list;
      (** seconds, one set-up after each pass; none when traced *)
}

let memo_stats ctx =
  Option.value ~default:(0, 0) (Daisy_scheduler.Common.sim_memo_stats ctx)

(** Run passes over [groups] for about [seconds]: another pass starts
    while the mean pass so far would still end inside the window, and
    there are at least two. Each pass visits the kernel families in its
    own seeded order, with fresh contexts, so every unit's samples are
    spread over the whole run. Without [trace], the workload's [setup]
    runs again after each pass, timed, so that the set-up times, too,
    are spread over the run rather than taken in one stretch before it.
    With [trace], odd passes are traced and also replay daisy's inner
    layers after each daisy unit; even passes stay untraced for the
    overhead figure; the library counters then see no set-up inside the
    passes. *)
let run_passes ~seed ~seconds ~trace ~db ~setup (groups : 'k group list) : run =
  let alloc = ref [] and hits = ref 0 and misses = ref 0 and traced = ref 0
  and setups = ref [] in
  let t0 = Measure.now () and started = ref 0 in
  let another () =
    let elapsed = Measure.now () -. t0 in
    !started < 2 || elapsed +. (elapsed /. float_of_int !started) <= seconds
  in
  while another () do
    let pass = !started in
    incr started;
    let tr = trace && pass mod 2 = 1 in
    Measure.tracing := tr;
    if tr then incr traced;
    let rng = Daisy_support.Rng.of_string (Printf.sprintf "%d/pass-%d" seed pass) in
    let a0 = Gc.minor_words () in
    List.iter
      (fun g ->
        let ctx = Fixture.ctx_for g.sizes in
        List.iter
          (fun (o : _ Fixture.outcome) ->
            Fixture.time_unit ctx o;
            if tr && o.Fixture.u.Fixture.daisy then
              Fixture.replay_daisy_layers ctx ~db o.Fixture.u.Fixture.input)
          g.outcomes;
        if tr then begin
          let h, m = memo_stats ctx in
          hits := !hits + h;
          misses := !misses + m
        end)
      (Fixture.shuffle rng groups);
    if not tr then alloc := (Gc.minor_words () -. a0) :: !alloc;
    if not trace then begin
      (* collect the pass's garbage first, so that the set-up pays for
         collecting its own only, as the one before the first pass does *)
      Gc.full_major ();
      setups := fst (Fixture.timed setup) :: !setups
    end
  done;
  Measure.tracing := false;
  {
    alloc_words = !alloc;
    memo_hits = !hits;
    memo_misses = !misses;
    traced_passes = !traced;
    setup_times = !setups;
  }

let min_ms o = 1000.0 *. Fixture.min_time o

(** The end-to-end metrics of a batch workload. Every timing is taken
    from per-unit minima over the untraced passes. Every unit is one
    compile by its scheduler, and its latency is its time. The set-up
    time is the median of [first_setup_s] (the set-up before the first
    pass) and the set-ups after each pass. *)
let e2e ~first_setup_s ~(outcomes : 'k Fixture.outcome list) ~(run : run)
    ~speedups ~spread : Measure.metric list =
  let ms = List.map min_ms outcomes in
  Measure.e2e
    ~setup_s:(Measure.median (first_setup_s :: run.setup_times))
    ~units_ms:ms ~compile_ms:ms ~latency_ms:ms
    ~alloc_mwords:(Measure.median run.alloc_words /. 1e6)
    ~speedups ~spread

(** The per-layer metrics of a traced batch run. *)
let per_layer ~(outcomes : 'k Fixture.outcome list) ~(run : run) ~checked
    ~failed : Measure.metric list =
  let passes = float_of_int (max 1 run.traced_passes) in
  let busy name = (Measure.layer name).Measure.busy in
  let daisy_parts =
    busy "normalize" +. busy "blas" +. busy "embedding"
    +. busy "scheduler.database.query"
  in
  let sum_min traced =
    Measure.sum (List.map (fun o -> Fixture.min_time ~traced o) outcomes)
  in
  let lookups = run.memo_hits + run.memo_misses in
  Layers.metrics
    ~per:(fun span ->
      if span = "scheduler.seed" then
        float_of_int (1 + List.length run.setup_times)
      else passes)
    ([
       ("scheduler.daisy.residual_s",
        (busy "scheduler.daisy" -. daisy_parts) /. passes);
       ("machine.sim_memo.hits", float_of_int run.memo_hits /. passes);
       ("machine.sim_memo.misses", float_of_int run.memo_misses /. passes);
       ("machine.sim_memo.hit_ratio",
        if lookups = 0 then 0.0
        else float_of_int run.memo_hits /. float_of_int lookups);
       ("check.programs", float_of_int checked);
       ("check.failed", float_of_int failed);
       ("trace.unattributed_s", (Measure.layer "unit").Measure.self /. passes);
       ("trace.overhead_s", sum_min true -. sum_min false);
     ]
    @ Layers.library_counters ())
