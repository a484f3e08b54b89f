(** [variants]: fresh loop-nest variants of every kernel, each scheduled
    by daisy alone and simulated — the paper's robustness claim, and
    the workload where the simulation memo hits. *)

module S = Daisy_scheduler
module Pb = Daisy_benchmarks.Polybench
module Variants = Daisy_benchmarks.Variants

type key = { kernel : string; index : int }

(* 7 variants of each of the 15 kernels: 105 programs, enough for a
   p90 with ten programs beyond it. *)
let per_kernel = 7

(* Variant seeds come from the workload seed and never collide with the
   reproduction's "bvariant-" seeds. *)
let variant ~seed (b : Pb.benchmark) i =
  Variants.generate
    ~seed:(Printf.sprintf "perfbench-%d-%s-%d" seed b.Pb.name i)
    (Pb.program b)

let groups ~seed ~db =
  List.map
    (fun (b : Pb.benchmark) ->
      {
        Batch.sizes = Fixture.sizes_of b;
        outcomes =
          List.init per_kernel (fun i ->
              let p = variant ~seed b i in
              Fixture.outcome
                {
                  Fixture.key = { kernel = b.Pb.name; index = i };
                  daisy = true;
                  input = p;
                  test_sizes = b.Pb.test_sizes;
                  run =
                    (fun ctx ->
                      Some
                        (Measure.span "scheduler.daisy" (fun () ->
                             (S.Daisy.schedule ctx ~db p).S.Daisy.program)));
                });
      })
    Pb.all

let run ~seed ~seconds ~trace : Measure.result =
  Measure.tracing := trace;
  let setup () =
    let db = Fixture.seed_database () in
    (db, groups ~seed ~db)
  in
  let first_setup_s, (db, groups) = Fixture.timed setup in
  Layers.reset_counters ();
  let run =
    Batch.run_passes ~seed ~seconds ~trace ~db
      ~setup:(fun () -> ignore (setup ()))
      groups
  in
  let outcomes = List.concat_map (fun g -> g.Batch.outcomes) groups in
  (* the clang reference for the speed-up, untimed and untraced *)
  let speedups =
    List.concat_map
      (fun (g : key Batch.group) ->
        let ctx = Fixture.ctx_for g.Batch.sizes in
        List.filter_map
          (fun (o : key Fixture.outcome) ->
            Option.map
              (fun d ->
                S.Common.runtime_ms ctx
                  (S.Baselines.clang_like o.Fixture.u.Fixture.input)
                /. d)
              o.Fixture.sim_ms)
          g.Batch.outcomes)
      groups
  in
  let spread =
    List.fold_left
      (fun acc (g : key Batch.group) ->
        match List.filter_map (fun o -> o.Fixture.sim_ms) g.Batch.outcomes with
        | [] -> acc
        | ms ->
            let hi = List.fold_left Float.max neg_infinity ms
            and lo = List.fold_left Float.min infinity ms in
            Float.max acc (hi /. lo))
      1.0 groups
  in
  let failed = ref 0 in
  List.iter
    (fun (o : key Fixture.outcome) ->
      match Fixture.verdict o with
      | None -> ()
      | Some why ->
          let k = o.Fixture.u.Fixture.key in
          Printf.printf "  failed: %s variant %d: %s\n" k.kernel k.index why;
          incr failed)
    outcomes;
  let attempted = List.length outcomes in
  {
    Measure.correct = !failed = 0;
    attempted;
    failed = !failed;
    e2e =
      Batch.e2e ~first_setup_s ~outcomes ~run ~speedups ~spread;
    per_layer =
      Batch.per_layer ~outcomes ~run ~checked:attempted ~failed:!failed;
  }
