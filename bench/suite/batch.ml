(* The four batch workloads. Each op is what a CLI user pays for one
   command: nothing is reused across ops. An op comes in two forms: the
   untraced one calls the public façade ([Analysis.run_checked],
   [Whatif.sweep], ...), the traced one calls the same layers one by one
   in the façade's order with a bench-side span around each, and both
   must produce the same answer digest. *)

module C = Mdp_core
module Synthetic = Mdp_scenario.Synthetic

type op_out = {
  digest : string;  (** the answer, reduced *)
  finish : first:bool -> (string, string) result;
      (** Untimed, after the op: releases what the op holds and checks
          it; on a run's first op also runs the oracle cross-check and
          may return extra digest material. [Error] fails the op. *)
  facts : (string * float) list;  (** traced only: per-layer counts *)
}

type instance = { op : unit -> op_out; traced : Trace.t -> op_out }

type params = { seed : int; smoke : bool; models : string; out : string }

let no_finish ~first:_ = Ok ""

(* Synthetic model specs are pinned at @42: their state count defines
   the workload, so [--seed] must not move it. *)
let pinned name =
  match Synthetic.spec_of_string name with
  | Some (Ok spec) -> spec
  | _ -> invalid_arg ("bad synthetic spec " ^ name)

let matrix () = C.Risk_matrix.make ~likelihood_thresholds:(0.07, 0.5) ()

let options ?mem_budget ?spill_dir () =
  { C.Generate.default_options with max_states = 2_000_000; mem_budget; spill_dir }

let lts_facts lts =
  let base =
    [
      ("lts.states", float_of_int (C.Plts.num_states lts));
      ("lts.transitions", float_of_int (C.Plts.num_transitions lts));
    ]
  in
  let mem =
    match C.Plts.mem_stats lts with
    | None -> []
    | Some ms ->
      [
        ("lts.bytes_per_state", ms.Mdp_lts.Lts.ms_bytes_per_state);
        ("lts.resident_mb", float_of_int ms.ms_resident_bytes /. 1048576.);
      ]
  in
  let spill =
    match C.Plts.spill_stats lts with
    | None -> []
    | Some sp ->
      [
        ("spill.mb", float_of_int sp.Mdp_lts.Lts.sp_bytes /. 1048576.);
        ("spill.chunks", float_of_int sp.sp_chunks);
        ("spill.faults", float_of_int sp.sp_faults);
      ]
  in
  base @ mem @ spill

let analysis_of ~options ~matrix ~profile u lts consistency plan report =
  {
    C.Analysis.params =
      {
        options;
        matrix;
        model = C.Disclosure_risk.default_likelihood;
        profile = Some profile;
        bindings = [];
      };
    universe = u;
    lts;
    consistency;
    disclosure = Some report;
    pseudonym = [];
    plan = Some plan;
  }

(* Analysis.run's order up to the report, one span per layer. *)
let traced_analysis tr ~options ~matrix ~profile diagram policy =
  let u = C.Universe.make diagram policy in
  let lts = Trace.span tr "generate.run" (fun () -> C.Generate.run ~options u) in
  let consistency =
    Trace.span tr "consistency.check" (fun () -> C.Consistency.check u)
  in
  let plan =
    Trace.span tr "risk_plan.compile" (fun () ->
        C.Risk_plan.compile ~matrix u lts)
  in
  let report =
    Trace.span tr "risk_plan.analyse" (fun () -> C.Risk_plan.analyse plan profile)
  in
  ( analysis_of ~options ~matrix ~profile u lts consistency plan report,
    lts_facts lts
    @ [
        ("risk_plan.entries", float_of_int (C.Risk_plan.num_entries plan));
        ("risk_plan.findings", float_of_int (List.length report.findings));
      ] )

let cold ~options ~matrix ?profile diagram policy =
  match C.Analysis.run_checked ~options ~matrix ?profile diagram policy with
  | Ok a -> a
  | Error f -> failwith (C.Analysis.failure_message f)

(* ----- risk-large ----- *)

let risk_large p =
  let spec = pinned (if p.smoke then "synthetic:6-8-5@42" else "synthetic:12-13-8@42") in
  let diagram, policy = Synthetic.model spec in
  let profile = Synthetic.profile { spec with seed = p.seed } diagram in
  let matrix = matrix () and options = options () in
  let render a = Util.render (fun ppf -> C.Analysis.pp_summary ppf a) in
  (* Oracle: the per-user summary path must agree with the report on the
     worst level. *)
  let finish (a : C.Analysis.t) ~first =
    if not first then Ok ""
    else
      match (a.plan, a.disclosure) with
      | Some plan, Some report ->
        let s = C.Risk_plan.summary plan profile in
        if C.Level.equal s.worst (C.Disclosure_risk.max_level report) then Ok ""
        else Error "Risk_plan.summary disagrees with the report's worst level"
      | _ -> Error "no disclosure report"
  in
  let op () =
    let a = cold ~options ~matrix ~profile diagram policy in
    { digest = fst (render a); finish = finish a; facts = [] }
  in
  let traced tr =
    let a, facts = traced_analysis tr ~options ~matrix ~profile diagram policy in
    let digest, bytes = Trace.span tr "analysis.render" (fun () -> render a) in
    {
      digest;
      finish = no_finish;
      facts = ("analysis.render_mb", float_of_int bytes /. 1e6) :: facts;
    }
  in
  { op; traced }

(* ----- explore-spill ----- *)

let spill_prefix = "mdpriv-spill-"

let leftover_dirs dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun n e -> if String.starts_with ~prefix:spill_prefix e then n + 1 else n)
      0 (Sys.readdir dir)

(* Every state's data (decoded through the spill tier) and successor row,
   plus the interned label table. *)
let row_digest lts =
  let h = ref 0 in
  let mix x = h := (!h * 1000003) lxor x in
  for i = 0 to C.Plts.num_states lts - 1 do
    mix (C.Config.hash (C.Plts.state_data lts i));
    C.Plts.iter_successors_lid lts i (fun lid dst ->
        mix lid;
        mix dst)
  done;
  let labels =
    match C.Plts.interned_labels lts with
    | None -> ""
    | Some ls ->
      String.concat "\n"
        (Array.to_list (Array.map (Format.asprintf "%a" C.Action.pp) ls))
  in
  Util.hex (string_of_int (!h land max_int) ^ "\n" ^ labels)

let spill_dir p = Filename.concat p.out (Printf.sprintf "spill-%d" (Unix.getpid ()))

let explore_spill p =
  let spec = pinned (if p.smoke then "synthetic:6-8-5@42" else "synthetic:9-14-8@42") in
  let diagram, policy = Synthetic.model spec in
  let dir = spill_dir p in
  Util.mkdir_p dir;
  (* 4.5 MiB is ~75% of this model's packed footprint (4.1 MiB stays
     resident, 1.7 MiB goes to disk): sealed chunks and dedup tables
     spill while the edge stream stays resident. *)
  let budget = if p.smoke then 16 * 1024 else 4608 * 1024 in
  let options = options ~mem_budget:budget ~spill_dir:dir () in
  let finish lts ~first =
    let extra = if first then row_digest lts else "" in
    C.Plts.drop_spill lts;
    match leftover_dirs dir with
    | 0 -> Ok extra
    | n -> Error (Printf.sprintf "%d spill directories left behind" n)
  in
  let op () =
    let u = C.Universe.make diagram policy in
    let lts = C.Generate.run ~options u in
    { digest = Util.hex (C.Lts_render.summary u lts); finish = finish lts; facts = [] }
  in
  let traced tr =
    let u = C.Universe.make diagram policy in
    let lts = Trace.span tr "generate.run" (fun () -> C.Generate.run ~options u) in
    let s = Trace.span tr "lts_render.summary" (fun () -> C.Lts_render.summary u lts) in
    { digest = Util.hex s; finish = finish lts; facts = lts_facts lts }
  in
  { op; traced }

(* ----- sweep-exact ----- *)

(* [Whatif.sweep]'s ranking: descending improvement score, uncomputed
   candidates last, ties in candidate order. *)
let rank outcomes =
  List.map
    (fun (o : C.Whatif.outcome) ->
      {
        C.Whatif.outcome = o;
        score =
          (match o.diff with Some d -> C.Whatif.improvement_score d | None -> min_int);
      })
    outcomes
  |> List.stable_sort (fun (a : C.Whatif.ranked) b -> compare b.score a.score)

let sweep_digest ranked =
  Util.hex
    (String.concat "\n"
       (List.map
          (fun (r : C.Whatif.ranked) ->
            Printf.sprintf "%s|%s|%d|%s"
              (C.Edit.to_string r.outcome.edit)
              (C.Whatif.classification_to_string r.outcome.classification)
              r.score
              (match r.outcome.worst_after with
              | Some l -> C.Level.to_string l
              | None -> "uncomputed"))
          ranked))

let class_name c =
  String.map (function '-' -> '_' | ch -> ch) (C.Whatif.classification_to_string c)

let sorted_diff (d : C.Risk_diff.t) =
  { d with removed = List.sort compare d.removed; added = List.sort compare d.added;
    changed = List.sort compare d.changed }

let sweep_exact p =
  let spec = pinned (if p.smoke then "synthetic:6-8-5@42" else "synthetic:9-12-7@42") in
  let diagram, policy = Synthetic.model spec in
  let profile = Synthetic.profile { spec with seed = p.seed } diagram in
  let matrix = matrix () and options = options () in
  let prepare a =
    match C.Whatif.prepare a with Ok b -> b | Error e -> failwith e
  in
  (* Oracle: one seeded cone-path candidate against a cold run of the
     edited inputs — same worst level, same diff as sorted sets. *)
  let oracle (base : C.Analysis.t) ranked =
    let outcomes = List.map (fun (r : C.Whatif.ranked) -> r.outcome) ranked in
    let pool =
      match List.filter (fun (o : C.Whatif.outcome) -> o.classification = Cone) outcomes with
      | [] -> outcomes
      | cone -> cone
    in
    let o = List.nth pool (p.seed mod List.length pool) in
    let edited =
      match C.Edit.apply (C.Analysis.inputs_of base) o.edit with
      | Ok i -> i
      | Error e -> failwith e
    in
    let truth =
      cold ~options ~matrix ?profile:edited.profile edited.diagram edited.policy
    in
    let after = Option.get truth.disclosure in
    let diff =
      C.Risk_diff.diff ~before:(Option.get base.disclosure) ~after
    in
    if
      o.worst_after = Some (C.Disclosure_risk.max_level after)
      && Option.map sorted_diff o.diff = Some (sorted_diff diff)
    then Ok ""
    else Error ("sweep outcome differs from a cold run for " ^ C.Edit.to_string o.edit)
  in
  let finish base ranked ~first =
    let uncomputed =
      List.length (List.filter (fun (r : C.Whatif.ranked) -> r.outcome.diff = None) ranked)
    in
    if uncomputed > 0 then Error (Printf.sprintf "%d sweep candidates uncomputed" uncomputed)
    else if first then oracle base ranked
    else Ok ""
  in
  let op () =
    let a = cold ~options ~matrix ~profile diagram policy in
    let b = prepare a in
    let ranked = C.Whatif.sweep ~exact:true b (C.Whatif.acl_candidates b) in
    { digest = sweep_digest ranked; finish = finish a ranked; facts = [] }
  in
  let traced tr =
    let a, facts = traced_analysis tr ~options ~matrix ~profile diagram policy in
    let b = Trace.span tr "whatif.prepare" (fun () -> prepare a) in
    let outcomes =
      List.map
        (fun edit ->
          Trace.span_named tr
            (fun (o : C.Whatif.outcome) -> "whatif." ^ class_name o.classification)
            (fun () ->
              match C.Whatif.eval_edit ~exact:true b edit with
              | Ok o -> o
              | Error _ ->
                { C.Whatif.edit; classification = Full_rerun; diff = None; worst_after = None }))
        (C.Whatif.acl_candidates b)
    in
    let ranked = rank outcomes in
    let answered = List.length (List.filter (fun (o : C.Whatif.outcome) -> o.diff <> None) outcomes) in
    {
      digest = sweep_digest ranked;
      finish = finish a ranked;
      facts =
        ("whatif.answered_ratio",
          float_of_int answered /. float_of_int (max 1 (List.length outcomes)))
        :: facts;
    }
  in
  { op; traced }

(* ----- population-100k ----- *)

let population p =
  let text =
    In_channel.with_open_bin (Filename.concat p.models "healthcare.mdp")
      In_channel.input_all
  in
  let size = if p.smoke then 2_000 else 100_000 in
  let spec =
    { C.Population.seed = p.seed; size; westin_mix = C.Population.default_mix;
      agree_probability = 0.5 }
  in
  let options = options () in
  let parse () =
    match Mdp_dsl.Parser.parse text with Ok m -> m | Error e -> failwith e
  in
  let render agg = fst (Util.render (fun ppf -> C.Population.pp_aggregate ppf agg)) in
  (* Oracle: the compiled, class-deduplicated engine against the naive
     per-profile analysis on a prefix of the population. *)
  let finish (u, lts, profiles) ~first =
    if not first then Ok ""
    else
      let prefix = List.filteri (fun i _ -> i < 1000) profiles in
      if C.Population.analyse u lts prefix = C.Population.analyse_compiled u lts prefix
      then Ok ""
      else Error "compiled population aggregate differs from the naive one"
  in
  let op () =
    let m = parse () in
    let u = C.Universe.make m.diagram m.policy in
    let lts = C.Generate.run ~options u in
    let profiles = C.Population.simulate spec m.diagram in
    let agg = C.Population.analyse_compiled u lts profiles in
    { digest = render agg; finish = finish (u, lts, profiles); facts = [] }
  in
  let traced tr =
    let m = Trace.span tr "dsl.parse" parse in
    let u = C.Universe.make m.diagram m.policy in
    let lts = Trace.span tr "generate.run" (fun () -> C.Generate.run ~options u) in
    let profiles =
      Trace.span tr "population.simulate" (fun () -> C.Population.simulate spec m.diagram)
    in
    let classes =
      Trace.span tr "population.classes" (fun () -> C.Population.classes u profiles)
    in
    let plan = Trace.span tr "risk_plan.compile" (fun () -> C.Risk_plan.compile u lts) in
    let agg =
      Trace.span tr "population.analyse" (fun () ->
          C.Population.analyse_compiled ~plan ~classes u lts [])
    in
    let digest = Trace.span tr "analysis.render" (fun () -> render agg) in
    {
      digest;
      finish = no_finish;
      facts =
        ("population.class_ratio",
          float_of_int (List.length classes) /. float_of_int (max 1 size))
        :: ("risk_plan.entries", float_of_int (C.Risk_plan.num_entries plan))
        :: lts_facts lts;
    }
  in
  { op; traced }
