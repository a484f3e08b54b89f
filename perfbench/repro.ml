(** [repro]: the paper's Fig. 6 sweep — 15 kernels x {A, B} x {polly,
    icc, tiramisu, daisy}, plus clang for the speed-up — over a
    database seeded from the 15 A variants. *)

module S = Daisy_scheduler
module Pb = Daisy_benchmarks.Polybench

type key = { kernel : string; variant : string; sched : string }

let schedulers = [ "clang"; "polly"; "icc"; "tiramisu"; "daisy" ]

(* Outputs of the baseline models that the tree interpreter rejects at
   the parent commit: polly on gemver/B is not equivalent, and polly and
   tiramisu on covariance raise "Expr.eval: unbound variable i". They
   count as failed; [correct] stays true only while every failure is
   one of these. *)
let known_defects =
  [
    ("gemver", "B", "polly");
    ("covariance", "A", "polly");
    ("covariance", "A", "tiramisu");
    ("covariance", "B", "polly");
    ("covariance", "B", "tiramisu");
  ]

let schedule ~db name ctx p : Daisy_loopir.Ir.program option =
  let baseline f = Some (Measure.span "scheduler.baselines" (fun () -> f p)) in
  match name with
  | "clang" -> baseline S.Baselines.clang_like
  | "icc" -> baseline S.Baselines.icc_like
  | "polly" -> baseline S.Baselines.polly_like
  | "tiramisu" -> (
      match Measure.span "scheduler.tiramisu" (fun () -> S.Tiramisu.schedule ctx p) with
      | S.Tiramisu.Scheduled p' -> Some p'
      | S.Tiramisu.Unsupported _ -> None)
  | _ ->
      Some
        (Measure.span "scheduler.daisy" (fun () ->
             (S.Daisy.schedule ctx ~db p).S.Daisy.program))

let groups ~db =
  List.map
    (fun (b : Pb.benchmark) ->
      let programs =
        [ ("A", Fixture.variant_a b); ("B", Fixture.variant_b b) ]
      in
      {
        Batch.sizes = Fixture.sizes_of b;
        outcomes =
          List.concat_map
            (fun sched ->
              List.map
                (fun (variant, p) ->
                  Fixture.outcome
                    {
                      Fixture.key = { kernel = b.Pb.name; variant; sched };
                      daisy = sched = "daisy";
                      input = p;
                      test_sizes = b.Pb.test_sizes;
                      run = (fun ctx -> schedule ~db sched ctx p);
                    })
                programs)
            schedulers;
      })
    Pb.all

let run ~seed ~seconds ~trace : Measure.result =
  Measure.tracing := trace;
  let setup () =
    let db = Fixture.seed_database () in
    (db, groups ~db)
  in
  let first_setup_s, (db, groups) = Fixture.timed setup in
  Layers.reset_counters ();
  let run =
    Batch.run_passes ~seed ~seconds ~trace ~db
      ~setup:(fun () -> ignore (setup ()))
      groups
  in
  let outcomes = List.concat_map (fun g -> g.Batch.outcomes) groups in
  let sim kernel variant sched =
    List.find_map
      (fun (o : key Fixture.outcome) ->
        let k = o.Fixture.u.Fixture.key in
        if k.kernel = kernel && k.variant = variant && k.sched = sched then
          o.Fixture.sim_ms
        else None)
      outcomes
  in
  let speedups =
    List.concat_map
      (fun (b : Pb.benchmark) ->
        List.filter_map
          (fun v ->
            match (sim b.Pb.name v "clang", sim b.Pb.name v "daisy") with
            | Some c, Some d -> Some (c /. d)
            | _ -> None)
          [ "A"; "B" ])
      Pb.all
  in
  let spread =
    List.fold_left
      (fun acc (b : Pb.benchmark) ->
        match (sim b.Pb.name "A" "daisy", sim b.Pb.name "B" "daisy") with
        | Some a, Some bb -> Float.max acc (Float.max a bb /. Float.min a bb)
        | _ -> acc)
      1.0 Pb.all
  in
  let attempted = ref 0 and failures = ref [] in
  List.iter
    (fun (o : key Fixture.outcome) ->
      if o.Fixture.output <> None || o.Fixture.error <> None then begin
        incr attempted;
        match Fixture.verdict o with
        | None -> ()
        | Some why ->
            let k = o.Fixture.u.Fixture.key in
            Printf.printf "  failed: %s/%s %s: %s\n" k.kernel k.variant k.sched
              why;
            failures := (k.kernel, k.variant, k.sched) :: !failures
      end)
    outcomes;
  let failed = List.length !failures in
  {
    Measure.correct =
      List.for_all (fun f -> List.mem f known_defects) !failures
      && speedups <> [];
    attempted = !attempted;
    failed;
    e2e =
      Batch.e2e ~first_setup_s ~outcomes ~run ~speedups ~spread;
    per_layer = Batch.per_layer ~outcomes ~run ~checked:!attempted ~failed;
  }
