(** What the batch workloads share: problem sizes, scheduling contexts,
    the seeded transfer-tuning database, timed work units and the output
    oracle. *)

module S = Daisy_scheduler
module Pb = Daisy_benchmarks.Polybench
module Variants = Daisy_benchmarks.Variants
module Interp = Daisy_interp.Interp
module Cost = Daisy_machine.Cost
module Ir = Daisy_loopir.Ir
module Rng = Daisy_support.Rng

(* Problem sizes are the PolyBench simulation sizes times [scale]. At the
   full sizes one Fig. 6 pass takes about 50 s on a 2-core VM, too long
   to repeat inside one run; at 0.3 it takes about 5 s and the layer
   mix (Tiramisu about 60%, daisy about 25%) and the checked outputs
   stay those of the full sweep. *)
let scale = 0.3

let scaled ?(factor = scale) sizes =
  List.map
    (fun (k, v) ->
      (k, max 4 (int_of_float (Float.round (float_of_int v *. factor)))))
    sizes

let sizes_of (b : Pb.benchmark) = scaled b.Pb.sim_sizes

(** A fresh context (and simulation memo) — one per kernel per pass, as
    one compile run would have. The harness's settings. *)
let ctx_for sizes =
  S.Common.make_ctx ~threads:12 ~sample_outer:8 ~engine:Cost.Bytecode ~sizes
    ()

let variant_a (b : Pb.benchmark) = Pb.program b

let variant_b (b : Pb.benchmark) =
  Variants.generate ~seed:("bvariant-" ^ b.Pb.name) (Pb.program b)

(** Seed the database from the 15 normalized A variants, one shard per
    kernel merged in order, exactly as the reproduction harness does. *)
let seed_database () : S.Database.t =
  let db = S.Database.create () in
  List.iter
    (fun (b : Pb.benchmark) ->
      let shard = S.Database.create () in
      Measure.span "scheduler.seed" (fun () ->
          S.Seed.seed_database ~epochs:2 ~population:6 ~iterations:2
            (ctx_for (sizes_of b)) ~db:shard
            [ (b.Pb.name, variant_a b) ]);
      S.Database.merge ~into:db shard)
    Pb.all;
  db

(** [f ()] and the seconds it took. *)
let timed f =
  let t0 = Measure.now () in
  let r = f () in
  (Measure.now () -. t0, r)

(** A seeded permutation. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Timed work units                                                    *)

(** One unit of a batch workload: schedule a program and simulate the
    result. [run] returns the scheduled program, or [None] when the
    scheduler does not apply. *)
type 'k unit_ = {
  key : 'k;
  daisy : bool;  (** scheduled by daisy *)
  input : Ir.program;
  test_sizes : (string * int) list;
  run : S.Common.ctx -> Ir.program option;
}

type 'k outcome = {
  u : 'k unit_;
  mutable times : (bool * float) list;
      (** seconds, one per pass, tagged with whether the pass was traced *)
  mutable output : Ir.program option;  (** from the first pass *)
  mutable sim_ms : float option;  (** simulated ms of [output] *)
  mutable unstable : bool;  (** a later pass simulated a different ms *)
  mutable error : string option;  (** an exception in a pass *)
}

let outcome u =
  { u; times = []; output = None; sim_ms = None; unstable = false;
    error = None }

let simulate ctx p =
  Measure.span "machine.cost" (fun () -> S.Common.runtime_ms ctx p)

(** Time one unit: schedule, then simulate the output under the same
    context. The first pass keeps the output; later passes must simulate
    the same runtime. *)
let time_unit ctx (o : _ outcome) =
  let first = o.times = [] and traced = !Measure.tracing in
  let t0 = Measure.now () in
  let r =
    try
      Ok
        (Measure.span "unit" (fun () ->
             Option.map (fun p -> (p, simulate ctx p)) (o.u.run ctx)))
    with e -> Error (Printexc.to_string e)
  in
  o.times <- (traced, Measure.now () -. t0) :: o.times;
  match r with
  | Error e -> o.error <- Some e
  | Ok r when first ->
      o.output <- Option.map fst r;
      o.sim_ms <- Option.map snd r
  | Ok r -> if Option.map snd r <> o.sim_ms then o.unstable <- true

(** The unit's minimum time over its untraced (or traced) passes. *)
let min_time ?(traced = false) (o : _ outcome) =
  List.fold_left
    (fun acc (tr, t) -> if tr = traced then Float.min acc t else acc)
    infinity o.times

(* ------------------------------------------------------------------ *)
(* The output oracle                                                   *)

(** Check an output against its input on the tree interpreter at the
    kernel's test sizes: [Ok ()] or the reason it fails. The scheduler
    under test plays no part in the verdict. *)
let check_equivalent ~input ~output ~sizes =
  let engine = !Interp.default_engine in
  Interp.default_engine := Interp.Tree;
  Fun.protect
    ~finally:(fun () -> Interp.default_engine := engine)
    (fun () ->
      match Interp.equivalent input output ~sizes () with
      | true -> Ok ()
      | false -> Error "not equivalent"
      | exception e -> Error (Printexc.to_string e))

(** The failure of one unit, if any: an exception in a pass, a
    simulated runtime that changed between passes, or an output the
    oracle rejects. *)
let verdict (o : _ outcome) =
  match (o.error, o.output) with
  | Some e, _ -> Some ("raised " ^ e)
  | None, _ when o.unstable -> Some "simulated runtime changed across passes"
  | None, None -> None
  | None, Some output -> (
      match
        check_equivalent ~input:o.u.input ~output ~sizes:o.u.test_sizes
      with
      | Ok () -> None
      | Error why -> Some why)

(* ------------------------------------------------------------------ *)
(* Daisy's inner layers, timed separately on the same inputs           *)

(** Replay, outside the timed unit, the calls [Daisy.schedule] makes
    into the normalize, BLAS-idiom, embedding and database layers for
    [p] — each under its own span — so the traced run can split daisy's
    time without instrumenting the library. What they leave of
    [scheduler.daisy] is the candidate tournament. *)
let replay_daisy_layers ?(query_span = "scheduler.database.query")
    (ctx : S.Common.ctx) ~db (p : Ir.program) =
  List.iter
    (fun n ->
      match n with
      | Ir.Nloop _ when S.Common.liftable n ->
          let sub = S.Common.single_nest_program p n in
          let sub =
            Measure.span "normalize" (fun () ->
                Daisy_normalize.Pipeline.normalize ~sizes:ctx.S.Common.sizes
                  sub)
          in
          List.iter
            (function
              | Ir.Nloop nest ->
                  ignore
                    (Measure.span "blas" (fun () ->
                         Daisy_blas.Patterns.detect_nest nest));
                  List.iter
                    (fun (_, unit_nest) ->
                      let e =
                        Measure.span "embedding" (fun () ->
                            Daisy_embedding.Embedding.of_node
                              (Ir.Nloop unit_nest))
                      in
                      Measure.span query_span (fun () ->
                          ignore (S.Database.exact_matches db unit_nest);
                          ignore (S.Database.query_embedding db ~k:10 e)))
                    (S.Common.schedulable_units ~outer:[] nest)
              | _ -> ())
            sub.Ir.body
      | _ -> ())
    p.Ir.body
