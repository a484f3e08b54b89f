(** The repository benchmark. Usage:

    {v main.exe --workload repro|variants|serve --seed N --seconds S --trace 0|1 v}

    Prints a readable table, then one JSON result object as the last
    line of standard output. See README.md in this directory. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload repro|variants|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
      let run =
        match !workload with
        | "repro" -> Repro.run
        | "variants" -> Compile_variants.run
        | "serve" -> Serve_mix.run
        | _ -> usage ()
      in
      Printf.printf "perfbench %s: seed %d, %.0f s, trace %b\n%!" !workload seed
        seconds trace;
      let result = run ~seed ~seconds ~trace in
      if trace then begin
        Layers.print_self_times ();
        Rundir.write_trace ~workload:!workload ~seed
      end;
      Measure.print_result ~trace result
  | _ -> usage ()
