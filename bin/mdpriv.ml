(* mdpriv — model-driven privacy risk analysis from the command line.

   Subcommands mirror the pipeline: validate a model file, render it (or
   its generated LTS) as DOT, run disclosure-risk analysis, simulate a
   trace against the runtime monitor, and analyse a CSV release for
   k-anonymity and value risk. *)

open Cmdliner
module Core = Mdp_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* "synthetic:NA-NF-FPS[@SEED]" (or "synthetic-NA-NF-FPS") names a
   generated model instead of a file — the bench suite's synthetic
   scaling cases, reachable from every subcommand. The parser lives in
   Mdp_scenario.Synthetic so the serve daemon resolves the same model
   from the same string. *)
let load_model path =
  match Mdp_scenario.Synthetic.spec_of_string path with
  | Some (Ok spec) ->
    let diagram, policy = Mdp_scenario.Synthetic.model spec in
    Ok { Mdp_dsl.Parser.diagram; policy; placement = None }
  | Some (Error msg) -> Error (`Msg msg)
  | None -> (
    match Mdp_dsl.Parser.parse (read_file path) with
    | Ok m -> Ok m
    | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e))
    | exception Sys_error e -> Error (`Msg e))

(* ----- metrics surface ----- *)

type metrics_opts = {
  m_enabled : bool;
  m_prom : string option;
  m_trace : string option;
}

let metrics_term =
  let enabled =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record metrics and phase spans while the command runs, then \
             print a per-phase breakdown and metrics summary to stderr \
             (stdout output is unchanged).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-prom" ] ~docv:"FILE"
          ~doc:
            "Write the recorded metrics to $(docv) in Prometheus text \
             exposition format (implies metrics recording).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-trace" ] ~docv:"FILE"
          ~doc:
            "Write the recorded spans to $(docv) as JSONL, one span per \
             line (implies metrics recording).")
  in
  Term.(
    const (fun m_enabled m_prom m_trace -> { m_enabled; m_prom; m_trace })
    $ enabled $ prom $ trace)

(* Run a command body with the metrics subsystem enabled, then report.
   Everything goes to stderr or to files, so enabling metrics changes
   no byte of the command's stdout output. *)
let with_metrics opts f =
  if not (opts.m_enabled || opts.m_prom <> None || opts.m_trace <> None) then
    f ()
  else begin
    Mdp_obs.Metrics.set_enabled true;
    let t0 = Mdp_obs.Clock.now_ns () in
    let code = f () in
    let wall = Mdp_obs.Clock.elapsed_s t0 in
    let snap = Mdp_obs.Metrics.snapshot () in
    let phases = Mdp_obs.Metrics.phase_table ~wall_s:wall snap in
    if phases <> [] then begin
      Format.eprintf "@.-- phases (wall %.3fs) --@." wall;
      List.iter
        (fun (name, s, frac) ->
          Format.eprintf "  %-12s %8.3fs  %5.1f%%@." name s (100. *. frac))
        phases;
      let total = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 phases in
      Format.eprintf "  %-12s %8.3fs  %5.1f%%@." "total" total
        (if wall > 0. then 100. *. total /. wall else 0.)
    end;
    Format.eprintf "@.-- metrics --@.%a" Mdp_obs.Metrics.pp_summary snap;
    Option.iter
      (fun p -> write_file p (Mdp_obs.Metrics.to_prometheus snap))
      opts.m_prom;
    Option.iter
      (fun p -> write_file p (Mdp_obs.Metrics.spans_to_jsonl snap))
      opts.m_trace;
    code
  end

(* ----- shared arguments ----- *)

let model_arg =
  let doc =
    "Model file in the mdpriv description language, or \
     synthetic:NACTORS-NFIELDS-FLOWS[@SEED] for a generated scaling model."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let services_arg =
  let doc = "Restrict to these services (repeatable)." in
  Arg.(value & opt_all string [] & info [ "service" ] ~docv:"SERVICE" ~doc)

let jobs_arg =
  let doc =
    "Domains used for the sweep's delta and cone candidate evaluations. \
     The ranking is identical for every value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* The OCaml runtime runs at most 128 domains by default (Max_domains
   in caml/domain.h), the calling domain included; past it
   [Domain.spawn] raises. *)
let domains_error opt ~others n =
  let most = 128 - others in
  if n >= 1 && n <= most then None
  else Some (Printf.sprintf "%s must be within [1,%d]" opt most)

let max_states_arg =
  let doc =
    "Abort LTS generation past this many states (guards against \
     state-space explosion on large models)."
  in
  Arg.(
    value
    & opt int Core.Generate.default_options.Core.Generate.max_states
    & info [ "max-states" ] ~docv:"N" ~doc)

(* Byte sizes with binary suffixes: "48M", "2G", or plain bytes. *)
let parse_size s =
  let err () =
    Error (`Msg (Printf.sprintf "invalid size %S (use e.g. 64M, 2G, 500000)" s))
  in
  let n = String.length s in
  if n = 0 then err ()
  else
    let mul, digits =
      match Char.uppercase_ascii s.[n - 1] with
      | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v when v > 0 && v <= max_int / mul -> Ok (v * mul)
    | Some _ | None -> err ()

let size_conv =
  Arg.conv (parse_size, fun ppf v -> Format.fprintf ppf "%d" v)

let mem_budget_arg =
  let doc =
    "Resident-byte budget for the packed LTS engine (suffixes K/M/G; \
     plain numbers are bytes). Above it, sealed arena chunks and dedup \
     tables spill to append-only files in a temporary directory and \
     exploration completes bounded by disk instead of RAM — with \
     byte-identical state numbering for every budget. Unset: never \
     spill."
  in
  Arg.(
    value
    & opt (some size_conv) None
    & info [ "mem-budget" ] ~docv:"BYTES" ~doc)

let exits_with_error = 1

(* Run an exploring computation under [Analysis.checked]: a tripped
   state guard or a spill I/O error prints its one-line structured
   message instead of escaping as an exception. *)
let exploring f k =
  match Core.Analysis.checked f with
  | Ok v -> k v
  | Error failure ->
    prerr_endline (Core.Analysis.failure_message failure);
    exits_with_error

let generate ?options u k =
  exploring
    (fun () ->
      Mdp_obs.Metrics.span "phase/explore" (fun () ->
          Core.Generate.run ?options u))
    k

(* Same contract for the full-analysis paths. *)
let run_analysis ?options ?profile diagram policy k =
  match Core.Analysis.run_checked ?options ?profile diagram policy with
  | Ok analysis -> k analysis
  | Error failure ->
    prerr_endline (Core.Analysis.failure_message failure);
    exits_with_error

(* Continue with the model at [path] (a file or a synthetic spec); a
   model that does not load prints its one-line message instead. *)
let with_model path k =
  match load_model path with
  | Ok model -> k model
  | Error (`Msg e) ->
    prerr_endline e;
    exits_with_error

(* ----- validate ----- *)

let validate_cmd =
  let run path =
    with_model path @@ fun model ->
    let d = model.Mdp_dsl.Parser.diagram in
    Printf.printf
      "ok: %d actors, %d datastores, %d services, %d fields (%d state \
       variable pairs)\n"
      (List.length d.Mdp_dataflow.Diagram.actors)
      (List.length d.Mdp_dataflow.Diagram.datastores)
      (List.length d.Mdp_dataflow.Diagram.services)
      (List.length (Mdp_dataflow.Diagram.all_fields d))
      (List.length d.Mdp_dataflow.Diagram.actors
      * List.length (Mdp_dataflow.Diagram.all_fields d));
    0
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Parse and validate a model file.")
    Term.(const run $ model_arg)

(* ----- dot ----- *)

let dot_cmd =
  let run path lts_mode flow_only services =
    with_model path @@ fun { diagram; policy; _ } ->
    if not lts_mode then begin
      print_string (Mdp_dataflow.Dot.to_string diagram);
      0
    end
    else begin
      let u = Core.Universe.make diagram policy in
      let base =
        if flow_only then Core.Generate.flow_only
        else Core.Generate.default_options
      in
      let options =
        match services with
        | [] -> base
        | l -> { base with Core.Generate.services = Some l }
      in
      generate ~options u (fun lts ->
          print_string (Core.Lts_render.to_dot lts);
          0)
    end
  in
  let lts_flag =
    Arg.(value & flag & info [ "lts" ] ~doc:"Render the generated LTS instead of the data-flow diagram.")
  in
  let flow_only_flag =
    Arg.(value & flag & info [ "flow-only" ] ~doc:"Omit policy-derived potential actions.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for the data-flow diagram or the privacy LTS.")
    Term.(const run $ model_arg $ lts_flag $ flow_only_flag $ services_arg)

(* ----- lts ----- *)

let lts_cmd =
  let run path flow_only granular services max_states mem_budget metrics =
    with_metrics metrics @@ fun () ->
    with_model path @@ fun { diagram; policy; _ } ->
    let u = Core.Universe.make diagram policy in
    let base =
      if flow_only then Core.Generate.flow_only
      else Core.Generate.default_options
    in
    let options =
      {
        base with
        Core.Generate.granular_reads = granular;
        max_states;
        mem_budget;
        services = (match services with [] -> None | l -> Some l);
      }
    in
    generate ~options u (fun lts ->
        Mdp_obs.Metrics.span "phase/render" (fun () ->
            print_endline (Core.Lts_render.summary u lts));
        0)
  in
  let flow_only_flag =
    Arg.(value & flag & info [ "flow-only" ] ~doc:"Flows only; no potential actions.")
  in
  let granular_flag =
    Arg.(value & flag & info [ "granular" ] ~doc:"Potential reads fetch one field at a time.")
  in
  Cmd.v
    (Cmd.info "lts" ~doc:"Generate the privacy LTS and print its statistics.")
    Term.(
      const run $ model_arg $ flow_only_flag $ granular_flag $ services_arg
      $ max_states_arg $ mem_budget_arg $ metrics_term)

(* ----- risk ----- *)

let parse_sensitivity s =
  match String.split_on_char '=' s with
  | [ field; value ] -> (
    match float_of_string_opt value with
    | Some v -> Ok (Mdp_dataflow.Field.of_name field, v)
    | None -> Error (`Msg (Printf.sprintf "bad sensitivity value in %S" s)))
  | _ -> Error (`Msg (Printf.sprintf "expected Field=0.9, got %S" s))

let collect_sensitivities specs =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
      match parse_sensitivity spec with
      | Ok pair -> collect (pair :: acc) rest
      | Error (`Msg e) -> Error e)
  in
  collect [] specs

let profile_args =
  let agree =
    Arg.(
      value & opt_all string []
      & info [ "agree" ] ~docv:"SERVICE"
          ~doc:"Service the user agreed to (repeatable).")
  in
  let sens =
    Arg.(
      value & opt_all string []
      & info [ "sensitivity" ] ~docv:"FIELD=V"
          ~doc:"Field sensitivity in [0,1] (repeatable), e.g. Diagnosis=0.9.")
  in
  (agree, sens)

let risk_cmd =
  let run path agreed sens_specs json max_states mem_budget metrics =
    with_metrics metrics @@ fun () ->
    with_model path @@ fun { diagram; policy; _ } ->
    match collect_sensitivities sens_specs with
    | Error e ->
      prerr_endline e;
      exits_with_error
    | Ok sensitivities -> (
      let profile =
        Core.User_profile.make ~sensitivities ~agreed_services:agreed ()
      in
      let options =
        { Core.Generate.default_options with max_states; mem_budget }
      in
      run_analysis ~options ~profile diagram policy (fun analysis ->
          Mdp_obs.Metrics.span "phase/render" (fun () ->
              if json then print_endline (Core.Report.to_string analysis)
              else Format.printf "%a@." Core.Analysis.pp_summary analysis);
          0))
  in
  let agree, sens = profile_args in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full report as JSON.")
  in
  Cmd.v
    (Cmd.info "risk" ~doc:"Run §III-A disclosure-risk analysis for a user profile.")
    Term.(
      const run $ model_arg $ agree $ sens $ json $ max_states_arg
      $ mem_budget_arg $ metrics_term)

(* ----- whatif / sweep ----- *)

let pp_invalidation ppf inv =
  match
    List.filter_map
      (fun (n, b) -> if b then Some n else None)
      (Core.Edit.invalidation_flags inv)
  with
  | [] -> Format.pp_print_string ppf "nothing"
  | l -> Format.pp_print_string ppf (String.concat ", " l)

let worst_of (t : Core.Analysis.t) =
  match t.Core.Analysis.disclosure with
  | Some r -> Core.Disclosure_risk.max_level r
  | None -> Core.Level.None_

let whatif_cmd =
  let run path agreed sens_specs edit_specs diff json max_states mem_budget
      metrics =
    with_metrics metrics @@ fun () ->
    with_model path @@ fun { diagram; policy; _ } ->
    match (collect_sensitivities sens_specs, Core.Edit.parse_all edit_specs) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      exits_with_error
    | Ok sensitivities, Ok edits -> (
      let profile =
        Core.User_profile.make ~sensitivities ~agreed_services:agreed ()
      in
      let options =
        { Core.Generate.default_options with max_states; mem_budget }
      in
      run_analysis ~options ~profile diagram policy @@ fun base ->
      let inputs = Core.Analysis.inputs_of base in
      match Core.Edit.apply_all inputs edits with
      | Error e ->
        prerr_endline ("edit does not apply: " ^ e);
        exits_with_error
      | Ok after_inputs -> (
        let inv =
          Core.Edit.classify ~options ~universe:base.Core.Analysis.universe
            ~before:inputs ~after:after_inputs
        in
        exploring (fun () ->
            Core.Analysis.run_incremental ~inv ~previous:base edits)
        @@ fun after ->
        (* With --json, stdout carries the report alone; the edit
           trail goes to stderr so the JSON stays parseable. *)
        let meta =
          if json then Format.err_formatter else Format.std_formatter
        in
        List.iter
          (fun e -> Format.fprintf meta "edit: %a@." Core.Edit.pp e)
          edits;
        Format.fprintf meta "invalidated: %a  (%s)@." pp_invalidation inv
          (if inv.Core.Edit.inv_lts then "full re-exploration"
           else "LTS reused");
        Format.fprintf meta "worst risk: %a -> %a@." Core.Level.pp
          (worst_of base) Core.Level.pp (worst_of after);
        (if diff then
           match
             ( base.Core.Analysis.disclosure,
               after.Core.Analysis.disclosure )
           with
           | Some before, Some after ->
             Format.fprintf meta "%a@." Core.Risk_diff.pp
               (Core.Risk_diff.diff ~before ~after)
           | _ -> ());
        Mdp_obs.Metrics.span "phase/render" (fun () ->
            if json then print_endline (Core.Report.to_string after)
            else Format.printf "%a@." Core.Analysis.pp_summary after);
        0))
  in
  let agree, sens = profile_args in
  let edit_specs =
    Arg.(
      non_empty & opt_all string []
      & info [ "edit"; "e" ] ~docv:"EDIT"
          ~doc:
            "Model edit, applied in order (repeatable): \
             $(b,grant:SUBJ:PERMS:STORE[:FIELDS]), \
             $(b,revoke:SUBJ:PERMS:STORE[:FIELDS]), \
             $(b,flow+:SERVICE:ORDER:SRC>DST:FIELDS[:PURPOSE]), \
             $(b,flow-:SERVICE:ORDER), $(b,sensitivity:FIELD=V), \
             $(b,agree:+SERVICE), $(b,agree:-SERVICE).")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Print the per-signature risk diff (removed / added / \
             re-levelled findings) between the baseline and the edited \
             model.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the post-edit report as JSON on stdout (the edit trail \
             moves to stderr).")
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:
         "Apply model edits and recompute the risk report incrementally \
          (§IV-A edit loop)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the baseline analysis once, classifies the edits' \
              invalidation impact, and recomputes only what they \
              invalidate. The result is byte-identical to a cold run on \
              the edited model; edits the classifier proves \
              LTS-preserving skip re-exploration entirely.";
         ])
    Term.(
      const run $ model_arg $ agree $ sens $ edit_specs $ diff $ json
      $ max_states_arg $ mem_budget_arg $ metrics_term)

let sweep_cmd =
  let run path agreed sens_specs exact top jobs max_states mem_budget metrics
      =
    with_metrics metrics @@ fun () ->
    match domains_error "--jobs" ~others:0 jobs with
    | Some e ->
      prerr_endline e;
      exits_with_error
    | None -> (
      with_model path @@ fun { diagram; policy; _ } ->
      match collect_sensitivities sens_specs with
      | Error e ->
        prerr_endline e;
        exits_with_error
      | Ok sensitivities -> (
        let profile =
          Core.User_profile.make ~sensitivities ~agreed_services:agreed ()
        in
        let options =
          { Core.Generate.default_options with max_states; mem_budget }
        in
        run_analysis ~options ~profile diagram policy @@ fun base ->
        match Core.Whatif.prepare base with
        | Error e ->
          prerr_endline e;
          exits_with_error
        | Ok b ->
          let candidates = Core.Whatif.acl_candidates b in
          let ranked = Core.Whatif.sweep ~jobs ~exact b candidates in
          Format.printf
            "sweep: %d single-ACL candidates over %d finding signatures \
             (%d sites), worst before %a@."
            (List.length candidates)
            (Core.Whatif.num_signatures b)
            (Core.Whatif.num_sites b) Core.Level.pp
            (Core.Whatif.worst_before b);
          let shown =
            if top > 0 then List.filteri (fun i _ -> i < top) ranked
            else ranked
          in
          List.iter
            (fun { Core.Whatif.outcome; score } ->
              let score_s =
                (* min_int marks a candidate that was classified but not
                   computed (replay/full-rerun without --exact, or an
                   edited model past --max-states). *)
                if score = min_int then "   ?" else Printf.sprintf "%+4d" score
              in
              let worst_s =
                match outcome.Core.Whatif.worst_after with
                | Some l -> Core.Level.to_string l
                | None -> "-"
              in
              Format.printf "  %s  %-10s  worst %-6s  %a@." score_s
                (Core.Whatif.classification_to_string
                   outcome.Core.Whatif.classification)
                worst_s Core.Edit.pp outcome.Core.Whatif.edit)
            shown;
          let omitted = List.length ranked - List.length shown in
          if omitted > 0 then
            Format.printf "  ... %d more (raise --top)@." omitted;
          0))
  in
  let agree, sens = profile_args in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Compute replay/full-rerun candidates too: a replay levels \
             the reused plan's labels under the edited profile, a full \
             rerun levels the labels of a cold exploration of the edited \
             model (slower; results stay byte-identical to cold runs).")
  in
  let top =
    Arg.(
      value & opt int 0
      & info [ "top" ] ~docv:"N"
          ~doc:"Show only the N best-ranked candidates (0 = all).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Rank every single-ACL removal by risk reduction, sharing one \
          compiled analysis."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the candidate set from the policy's concrete grants \
              (one revocation per Read/Write tuple, one whole-store \
              revocation per Delete holder), evaluates each as a delta \
              against the shared compiled risk plan, and ranks by the \
              summed level-rank improvement. Positive scores reduce \
              risk; candidates needing re-exploration are listed but \
              only computed under $(b,--exact).";
         ])
    Term.(
      const run $ model_arg $ agree $ sens $ exact $ top $ jobs_arg
      $ max_states_arg $ mem_budget_arg $ metrics_term)

(* ----- simulate ----- *)

let parse_snooper s =
  match String.split_on_char ':' s with
  | [ actor; store; prob ] -> (
    match float_of_string_opt prob with
    | Some probability -> Ok { Mdp_runtime.Sim.actor; store; probability }
    | None -> Error (Printf.sprintf "bad probability in %S" s))
  | _ -> Error (Printf.sprintf "expected ACTOR:STORE:PROB, got %S" s)

let simulate_cmd =
  let run path services snoop_specs seed agreed sens_specs metrics =
    with_metrics metrics @@ fun () ->
    with_model path @@ fun { diagram; policy; _ } ->
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest -> (
        match parse_snooper spec with
        | Ok sn -> collect (sn :: acc) rest
        | Error e -> Error e)
    in
    match (collect [] snoop_specs, collect_sensitivities sens_specs) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      exits_with_error
    | Ok snoopers, Ok sensitivities ->
      let profile =
        Core.User_profile.make ~sensitivities ~agreed_services:agreed ()
      in
      run_analysis ~profile diagram policy @@ fun analysis ->
      let services =
        match services with
        | [] ->
          List.map
            (fun (s : Mdp_dataflow.Service.t) -> s.id)
            diagram.Mdp_dataflow.Diagram.services
        | l -> l
      in
      match
        Mdp_runtime.Sim.run analysis.Core.Analysis.universe
          { seed; services; snoopers }
      with
      | Error e ->
        prerr_endline e;
        exits_with_error
      | Ok trace ->
        let monitor =
          Mdp_runtime.Monitor.create
            ~annotate:(Core.Analysis.annotate analysis)
            analysis.Core.Analysis.universe analysis.Core.Analysis.lts
        in
        List.iter
          (fun event ->
            Format.printf "%a@." Mdp_runtime.Event.pp event;
            List.iter
              (fun alert ->
                Format.printf "  !! %a@." Mdp_runtime.Monitor.pp_alert alert)
              (Mdp_runtime.Monitor.observe monitor event))
          trace;
        0
  in
  let snoop =
    Arg.(
      value & opt_all string []
      & info [ "snoop" ] ~docv:"ACTOR:STORE:PROB"
          ~doc:"Opportunistic reader (repeatable).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")
  in
  let agree, sens = profile_args in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a subject's trace and run the privacy monitor over it.")
    Term.(
      const run $ model_arg $ services_arg $ snoop $ seed $ agree $ sens
      $ metrics_term)

(* ----- anon ----- *)

let anon_cmd =
  let run csv_path quasi sensitive k closeness confidence metrics =
    with_metrics metrics @@ fun () ->
    let kinds =
      List.map (fun q -> (q, Mdp_anon.Attribute.Quasi)) quasi
      @ [ (sensitive, Mdp_anon.Attribute.Sensitive) ]
    in
    let policy = { Mdp_anon.Value_risk.sensitive; closeness; confidence } in
    match
      Result.bind (Mdp_anon.Value_risk.check_policy policy) (fun () ->
          Mdp_anon.Csv.parse ~kinds (read_file csv_path))
    with
    | Error e ->
      prerr_endline e;
      exits_with_error
    | Ok ds -> (
      (* [mondrian_release] keeps the compiled release, so the value-risk
         sweep reuses its dictionaries instead of recompiling the dataset
         it just produced. *)
      match
        Mdp_anon.Columnar.mondrian_release ~k (Mdp_anon.Columnar.compile ds)
      with
      | Error e ->
        prerr_endline e;
        exits_with_error
      | Ok rplan ->
        print_string (Mdp_anon.Csv.render (Mdp_anon.Columnar.source rplan));
        List.iter
          (fun report ->
            Format.printf "%a@." Mdp_anon.Value_risk.pp_report report)
          (Mdp_anon.Columnar.value_risk_sweep rplan policy);
        0)
  in
  let csv =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CSV" ~doc:"Microdata CSV file.")
  in
  let quasi =
    Arg.(value & opt_all string [] & info [ "quasi" ] ~docv:"ATTR" ~doc:"Quasi-identifier column.")
  in
  let sensitive =
    Arg.(required & opt (some string) None & info [ "sensitive" ] ~docv:"ATTR" ~doc:"Sensitive column.")
  in
  let k = Arg.(value & opt int 2 & info [ "k"; "kanon" ] ~doc:"k-anonymity parameter.") in
  let closeness =
    Arg.(value & opt float 5.0 & info [ "closeness" ] ~doc:"Value-risk closeness radius.")
  in
  let confidence =
    Arg.(value & opt float 0.9 & info [ "confidence" ] ~doc:"Violation confidence threshold.")
  in
  Cmd.v
    (Cmd.info "anon"
       ~doc:"Mondrian-anonymise a CSV and sweep §III-B value risk over it.")
    Term.(
      const run $ csv $ quasi $ sensitive $ k $ closeness $ confidence
      $ metrics_term)


(* ----- check (requirements) ----- *)

let check_cmd =
  let run path specs agreed sens_specs =
    with_model path @@ fun { diagram; policy; _ } ->
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest -> (
        match Core.Requirement.of_spec spec with
        | Ok r -> collect (r :: acc) rest
        | Error e -> Error e)
    in
    match (collect [] specs, collect_sensitivities sens_specs) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      exits_with_error
    | Ok requirements, Ok sensitivities ->
      let u = Core.Universe.make diagram policy in
      generate u @@ fun lts ->
      (* Risk annotations are needed for maxrisk requirements. *)
      let annotate =
        if agreed = [] && sensitivities = [] then Fun.id
        else
          Core.Risk_plan.annotate
            (Core.Risk_plan.compile u lts)
            (Core.User_profile.make ~sensitivities ~agreed_services:agreed ())
      in
      let violations = Core.Requirement.check ~annotate u lts requirements in
      List.iter
        (fun r ->
          if
            List.exists
              (fun (v : Core.Requirement.violation) -> v.requirement = r)
              violations
          then Format.printf "VIOLATED %a@." Core.Requirement.pp r
          else Format.printf "ok       %a@." Core.Requirement.pp r)
        requirements;
      List.iter
        (fun v -> Format.printf "@.%a@." Core.Requirement.pp_violation v)
        violations;
      if violations = [] then 0 else exits_with_error
  in
  let specs =
    Arg.(
      value & opt_all string []
      & info [ "require" ] ~docv:"REQ"
          ~doc:
            "Requirement (repeatable): never=A:F, nevercould=A:F, \
             noaction=A:KIND, purposes=F:p1;p2, maxrisk=LEVEL.")
  in
  let agree, sens = profile_args in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check declarative privacy requirements against the generated LTS.")
    Term.(const run $ model_arg $ specs $ agree $ sens)

(* ----- population ----- *)

let population_cmd =
  let run path size seed agree_probability metrics =
    with_metrics metrics @@ fun () ->
    (* the rules of serve's population spec; the negation refuses NaN *)
    let bad_spec =
      if size < 1 then Some "--size must be positive"
      else if not (agree_probability >= 0.0 && agree_probability <= 1.0) then
        Some "--agree-probability must be within [0,1]"
      else None
    in
    match bad_spec with
    | Some e ->
      prerr_endline e;
      exits_with_error
    | None ->
      with_model path @@ fun { diagram; policy; _ } ->
      let u = Core.Universe.make diagram policy in
      generate u @@ fun lts ->
      let spec =
        {
          Core.Population.seed;
          size;
          westin_mix = Core.Population.default_mix;
          agree_probability;
        }
      in
      let profiles = Core.Population.simulate spec diagram in
      let aggregate =
        Mdp_obs.Metrics.span "phase/analyse" (fun () ->
            Core.Population.analyse_compiled u lts profiles)
      in
      Mdp_obs.Metrics.span "phase/render" (fun () ->
          Format.printf "%a@." Core.Population.pp_aggregate aggregate);
      0
  in
  let size =
    Arg.(value & opt int 100 & info [ "size" ] ~docv:"N" ~doc:"Population size.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let agreep =
    Arg.(
      value & opt float 0.6
      & info [ "agree-probability" ] ~docv:"P"
          ~doc:"Per-service agreement probability.")
  in
  Cmd.v
    (Cmd.info "population"
       ~doc:"Aggregate disclosure risk over a simulated user population.")
    Term.(
      const run $ model_arg $ size $ seed $ agreep $ metrics_term)


(* ----- monitor (offline trace replay) ----- *)

let monitor_cmd =
  let run path trace_path agreed sens_specs metrics =
    with_metrics metrics @@ fun () ->
    with_model path @@ fun { diagram; policy; _ } ->
    match
      ( Mdp_runtime.Trace.of_lines (read_file trace_path),
        collect_sensitivities sens_specs )
    with
    | Error e, _ ->
      prerr_endline (trace_path ^ ": " ^ e);
      exits_with_error
    | _, Error e ->
      prerr_endline e;
      exits_with_error
    | Ok trace, Ok sensitivities ->
      let profile =
        Core.User_profile.make ~sensitivities ~agreed_services:agreed ()
      in
      run_analysis ~profile diagram policy @@ fun analysis ->
      Format.printf "%a@." Mdp_runtime.Trace.pp_stats
        (Mdp_runtime.Trace.stats trace);
      let monitor =
        Mdp_runtime.Monitor.create
          ~annotate:(Core.Analysis.annotate analysis)
          analysis.Core.Analysis.universe analysis.Core.Analysis.lts
      in
      let alerts = ref 0 in
      List.iter
        (fun event ->
          List.iter
            (fun alert ->
              incr alerts;
              Format.printf "%a@." Mdp_runtime.Monitor.pp_alert alert)
            (Mdp_runtime.Monitor.observe monitor event))
        trace;
      Format.printf "%d event(s), %d alert(s)@."
        (Mdp_runtime.Monitor.stats monitor).observed !alerts;
      if !alerts = 0 then 0 else exits_with_error
  in
  let trace_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE" ~doc:"Recorded event trace file.")
  in
  let agree, sens = profile_args in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay a recorded event trace through the privacy monitor.")
    Term.(const run $ model_arg $ trace_arg $ agree $ sens $ metrics_term)


(* ----- transfers (deployment analysis) ----- *)

let transfers_cmd =
  let run path agreed sens_specs =
    with_model path @@ fun { diagram; policy; placement } ->
    match collect_sensitivities sens_specs with
    | Error e ->
      prerr_endline e;
      exits_with_error
    | Ok sensitivities -> (
      match placement with
      | None ->
        prerr_endline
          "model declares no deployment: add node/place stanzas";
        exits_with_error
      | Some p -> (
        let u = Core.Universe.make diagram policy in
        let nodes =
          List.map
            (fun (n : Mdp_dsl.Parser.node_decl) ->
              { Mdp_runtime.Deployment.id = n.node; region = n.region })
            p.nodes
        in
        match
          Mdp_runtime.Deployment.create ~nodes ~actors:p.actor_nodes
            ~stores:p.store_nodes u
        with
        | Error msgs ->
          List.iter prerr_endline msgs;
          exits_with_error
        | Ok deployment ->
          generate u @@ fun lts ->
          let transfers = Mdp_runtime.Deployment.transfers deployment lts in
          List.iter
            (fun tr ->
              Format.printf "%a@." Mdp_runtime.Deployment.pp_transfer tr)
            transfers;
          if agreed <> [] || sensitivities <> [] then begin
            let profile =
              Core.User_profile.make ~sensitivities ~agreed_services:agreed ()
            in
            match
              Mdp_runtime.Deployment.risky_transfers deployment lts profile
            with
            | [] -> Format.printf "@.no unconsented cross-region transfers@."
            | risky ->
              Format.printf "@.unconsented cross-region transfers:@.";
              List.iter
                (fun tr ->
                  Format.printf "  %a@." Mdp_runtime.Deployment.pp_transfer tr)
                risky
          end;
          0))
  in
  let agree, sens = profile_args in
  Cmd.v
    (Cmd.info "transfers"
       ~doc:"List network transfers under the model's node placement.")
    Term.(const run $ model_arg $ agree $ sens)


(* ----- transparency ----- *)

let transparency_cmd =
  let run path =
    with_model path @@ fun { diagram; policy; _ } ->
    let u = Core.Universe.make diagram policy in
    generate u @@ fun lts ->
    (match Core.Transparency.worst_case u lts with
    | [] -> print_endline "(no exposure in any reachable state)"
    | entries -> Format.printf "@[<v>%a@]@." Core.Transparency.pp entries);
    0
  in
  Cmd.v
    (Cmd.info "transparency"
       ~doc:
         "Data-subject transparency report: who has seen or could see \
          which fields, in any reachable state.")
    Term.(const run $ model_arg)

(* ----- serve ----- *)

let serve_cmd =
  let run workers queue_cap cache_cap deadline_ms max_states mem_budget soak
      seed fault_rate metrics =
    with_metrics metrics @@ fun () ->
    (* each worker is a domain beside the one reading requests *)
    match (domains_error "--workers" ~others:1 workers, soak) with
    | Some e, _ ->
      prerr_endline e;
      exits_with_error
    | None, Some requests ->
      (* In-process chaos soak: seeded adversarial workload through the
         same Server/Engine stack the daemon runs, with the resilience
         contract checked by the harness. *)
      let spec =
        {
          Mdp_serve.Soak.default_spec with
          seed;
          requests;
          workers;
          queue_cap;
          fault_rate;
        }
      in
      let outcome = Mdp_serve.Soak.run spec in
      Format.printf "%a@." Mdp_serve.Soak.pp_outcome outcome;
      if outcome.Mdp_serve.Soak.ok then 0 else exits_with_error
    | None, None ->
      let config =
        {
          Mdp_serve.Engine.default_config with
          result_cap = cache_cap;
          stale_cap = max 1 (cache_cap / 2);
          default_deadline_ms = deadline_ms;
          max_states;
          mem_budget;
        }
      in
      let engine = Mdp_serve.Engine.create ~config () in
      Mdp_serve.Server.serve_channels ~workers ~queue_cap engine stdin stdout;
      0
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains answering requests.")
  in
  let queue_cap =
    Arg.(
      value & opt int 32
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission queue bound; requests beyond it are shed with an \
             $(b,overloaded) response (or a stale cached result when the \
             request sets allow_stale).")
  in
  let cache_cap =
    Arg.(
      value & opt int 64
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:"Rendered-result LRU entries (half as many stale entries).")
  in
  let deadline =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline budget applied when a request \
             names none.")
  in
  let soak =
    Arg.(
      value & opt (some int) None
      & info [ "soak" ] ~docv:"REQUESTS"
          ~doc:
            "Run the chaos soak harness with this many generated requests \
             instead of serving; exits non-zero if the resilience contract \
             is violated.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Soak workload seed.")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.05
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Soak drop/duplicate/reorder/delay probability per line.")
  in
  (* The daemon's guard defaults higher than one-shot generation: the
     packed LTS engine holds millions of states in a few bytes each, and
     a long-lived server is exactly where the large-model headroom
     matters. State-limit responses report the observed bytes/state so
     the ceiling can be tuned against real memory. *)
  let serve_max_states =
    Arg.(
      value
      & opt int Mdp_serve.Engine.default_config.Mdp_serve.Engine.max_states
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Ceiling clamped onto per-request max_states; generation past \
             it aborts with a $(b,state_limit) response carrying the \
             observed states, transitions and bytes/state.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived analysis daemon: newline-delimited JSON requests on \
          stdin, responses on stdout. See docs/SERVE.md for the protocol.")
    Term.(
      const run $ workers $ queue_cap $ cache_cap $ deadline
      $ serve_max_states $ mem_budget_arg $ soak $ seed $ fault_rate
      $ metrics_term)

let () =
  let info =
    Cmd.info "mdpriv" ~version:"1.0.0"
      ~doc:"Model-driven identification of privacy risks in data services."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ validate_cmd; dot_cmd; lts_cmd; risk_cmd; whatif_cmd; sweep_cmd;
            simulate_cmd; anon_cmd; check_cmd; population_cmd; monitor_cmd;
            transfers_cmd; transparency_cmd; serve_cmd ]))
