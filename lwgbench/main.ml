(* Command line of the LWG benchmark: runs one workload, prints every
   metric by name and unit, writes a stamped results file, and ends
   with the one-line JSON verdict. *)

module W = Plwg_lwgbench.Workload
module Jsonw = Plwg_lwgbench.Jsonw

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "" and revision = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" (List.map (fun s -> s.W.name) W.all));
      ("--seed", Arg.Set_int seed, "N input and simulation seed");
      ("--seconds", Arg.Set_int seconds, "S measured time the run is sized for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--out", Arg.Set_string out, "FILE results file (stamp, metrics, run details)");
      ("--revision", Arg.Set_string revision, "REV source revision recorded in the stamp");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main --workload NAME [options]";
  let w =
    match List.find_opt (fun s -> String.equal s.W.name !workload) W.all with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let r = W.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) r.W.errors;
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %14.4f %s\n" name v unit) r.W.metrics;
  let metrics = Jsonw.Obj (List.map (fun (n, v, u) -> (n, Jsonw.Obj [ ("value", Jsonw.Num v); ("unit", Jsonw.Str u) ])) r.W.metrics) in
  let stamp =
    Jsonw.Obj
      [
        ("nproc", Jsonw.Int (Domain.recommended_domain_count ()));
        ("ocaml", Jsonw.Str Sys.ocaml_version);
        ("revision", Jsonw.Str !revision);
        ("workload", Jsonw.Str w.W.name);
        ("seed", Jsonw.Int !seed);
        ("seconds", Jsonw.Int !seconds);
        ("trace", Jsonw.Int !trace);
      ]
  in
  if not (String.equal !out "") then begin
    let oc = open_out !out in
    output_string oc
      (Jsonw.to_string
         (Jsonw.Obj
            [ ("schema", Jsonw.Str "plwg-lwgbench/1"); ("stamp", stamp); ("metrics", metrics); ("details", r.W.details) ]));
    output_char oc '\n';
    close_out oc
  end;
  print_endline
    (Jsonw.to_string
       (Jsonw.Obj
          [
            ("correct", Jsonw.Bool r.W.correct);
            ("attempted", Jsonw.Int r.W.attempted);
            ("failed", Jsonw.Int r.W.failed);
            ("metrics", metrics);
          ]))
