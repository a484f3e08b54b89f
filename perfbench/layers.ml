(** The per-layer metrics of a traced run. Every workload prints every
    name below; a layer the workload does not exercise reads 0. *)

(* Span-timed layers: span name, busy-time metric, call-count metric. *)
let timed =
  [
    ("scheduler.seed", "scheduler.seed.busy_s", None);
    ("scheduler.tiramisu", "scheduler.tiramisu.busy_s",
     Some "scheduler.tiramisu.calls");
    ("scheduler.baselines", "scheduler.baselines.busy_s", None);
    ("scheduler.daisy", "scheduler.daisy.busy_s", Some "scheduler.daisy.calls");
    ("normalize", "normalize.busy_s", None);
    ("blas", "blas.busy_s", None);
    ("embedding", "embedding.busy_s", None);
    ("scheduler.database.query", "scheduler.database.query_busy_s",
     Some "scheduler.database.query_calls");
    ("scheduler.shardstore.query", "scheduler.shardstore.query_busy_s", None);
    ("scheduler.shardstore.append", "scheduler.shardstore.append_busy_s",
     Some "scheduler.shardstore.appends");
    ("machine.cost", "machine.cost.busy_s", Some "machine.cost.calls");
    ("lang", "lang.busy_s", None);
  ]

(* Counters and derived figures, with their units. *)
let counted =
  [
    ("scheduler.daisy.residual_s", "s");
    ("scheduler.database.index_fallbacks", "count");
    ("scheduler.shardstore.ann_builds", "count");
    ("scheduler.shardstore.quarantines", "count");
    ("machine.cost.engine_fallbacks", "count");
    ("interp.compiled_fallbacks", "count");
    ("machine.sim_memo.hits", "count");
    ("machine.sim_memo.misses", "count");
    ("machine.sim_memo.hit_ratio", "ratio");
    ("serve.server.eval_p50_ms", "ms");
    ("serve.server.wait_p95_ms", "ms");
    ("serve.daemon.served", "count");
    ("serve.daemon.shed", "count");
    ("serve.daemon.degraded", "count");
    ("serve.daemon.retried", "count");
    ("serve.daemon.failed", "count");
    ("serve.daemon.compactions", "count");
    ("serve.daemon.shard_swaps", "count");
    ("serve.daemon.reloads", "count");
    ("serve.client.transport_errors", "count");
    ("loadgen.sent", "count");
    ("loadgen.late_p95_ms", "ms");
    ("loadgen.latency_p50_ms", "ms");
    ("loadgen.latency_p95_ms", "ms");
    ("check.programs", "count");
    ("check.failed", "count");
    ("trace.unattributed_s", "s");
    ("trace.overhead_s", "s");
  ]

(** Every per-layer metric name with its unit, in print order. *)
let names : (string * string) list =
  List.concat_map
    (fun (span, busy, calls) ->
      [ (busy, "s") ]
      @ (match calls with Some c -> [ (c, "count") ] | None -> [])
      @ [ (span ^ ".alloc_mwords", "Mwords") ])
    timed
  @ counted

(** The per-layer metric list: span totals divided by [per] (the number
    of traced passes or set-ups they cover, per span name) unless
    [values] gives the name; absent names read 0. *)
let metrics ~(per : string -> float) (values : (string * float) list) :
    Measure.metric list =
  let tbl = Measure.layers () in
  let from_spans =
    List.concat_map
      (fun (span, busy, calls) ->
        let l =
          Option.value
            ~default:
              { Measure.busy = 0.0; self = 0.0; calls = 0; alloc_w = 0.0 }
            (Hashtbl.find_opt tbl span)
        in
        let d = per span in
        [ (busy, l.Measure.busy /. d) ]
        @ (match calls with
          | Some c -> [ (c, float_of_int l.Measure.calls /. d) ]
          | None -> [])
        @ [ (span ^ ".alloc_mwords", l.Measure.alloc_w /. d /. 1e6) ])
      timed
  in
  let all = values @ from_spans in
  List.map
    (fun (name, unit_) ->
      Measure.m name unit_
        (Option.value ~default:0.0 (List.assoc_opt name all)))
    names

(** Process-wide counters the workloads read from outside the library:
    reset before a workload's measured part, read after it. *)
let reset_counters () =
  Daisy_machine.Cost.reset_engine_fallbacks ();
  Daisy_interp.Interp.reset_compiled_fallbacks ();
  Daisy_scheduler.Database.reset_index_fallbacks ();
  Daisy_scheduler.Shardstore.reset_ann_builds ();
  Daisy_scheduler.Shardstore.reset_quarantines ()


let library_counters () =
  [
    ("scheduler.database.index_fallbacks",
     float_of_int (Daisy_scheduler.Database.index_fallbacks ()));
    ("scheduler.shardstore.ann_builds",
     float_of_int (Daisy_scheduler.Shardstore.ann_builds ()));
    ("scheduler.shardstore.quarantines",
     float_of_int (Daisy_scheduler.Shardstore.quarantines ()));
    ("machine.cost.engine_fallbacks",
     float_of_int (Daisy_machine.Cost.engine_fallbacks ()));
    ("interp.compiled_fallbacks",
     float_of_int (Daisy_interp.Interp.compiled_fallbacks ()));
  ]

(** Self time per span name, largest first, for the human-readable
    part of a traced run. *)
let print_self_times () =
  let rows =
    Hashtbl.fold (fun name l acc -> (name, l) :: acc) (Measure.layers ()) []
    |> List.sort (fun (_, a) (_, b) -> compare b.Measure.self a.Measure.self)
  in
  Printf.printf "  %-32s %12s %12s %8s\n" "span" "busy (s)" "self (s)" "calls";
  List.iter
    (fun (name, l) ->
      Printf.printf "  %-32s %12.4f %12.4f %8d\n" name l.Measure.busy
        l.Measure.self l.Measure.calls)
    rows
