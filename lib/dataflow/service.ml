type t = { id : string; flows : Flow.t list }

let make ~id ~flows =
  if id = "" then invalid_arg "Service.make: empty id";
  if flows = [] then invalid_arg "Service.make: no flows";
  (match Mdp_prelude.Listx.find_duplicate (fun (f : Flow.t) -> f.order) flows with
  | Some o -> invalid_arg (Printf.sprintf "Service.make: duplicate flow order %d" o)
  | None -> ());
  let flows = List.sort (fun (a : Flow.t) b -> Int.compare a.order b.order) flows in
  { id; flows }

let endpoints t = List.concat_map (fun (f : Flow.t) -> [ f.src; f.dst ]) t.flows

let actors t =
  Mdp_prelude.Listx.dedup
    (List.filter_map
       (function Flow.Actor a -> Some a | Flow.User | Flow.Store _ -> None)
       (endpoints t))

let flow_with_order t o = List.find_opt (fun (f : Flow.t) -> f.order = o) t.flows

let pp ppf t =
  Format.fprintf ppf "service %s@,%a" t.id
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Flow.pp)
    t.flows
