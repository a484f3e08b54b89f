(** Files a run leaves: everything goes under [.perfbench-run/] in the
    current directory (the checkout), which the repository ignores. *)

let root = ".perfbench-run"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let ensure dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(** A fresh private directory for this process, removed by [f]'s end. *)
let with_private_dir name f =
  ensure root;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(** Write the recorded spans to [.perfbench-run/trace-<workload>-<seed>.jsonl]. *)
let write_trace ~workload ~seed =
  ensure root;
  let path =
    Filename.concat root (Printf.sprintf "trace-%s-%d.jsonl" workload seed)
  in
  Measure.write_spans path;
  Printf.printf "  spans written to %s\n" path
