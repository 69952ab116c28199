module Prng = Mdp_prelude.Prng

(* ------------------------------------------------------------------ *)
(* Trace perturbation *)

type profile = {
  drop : float;
  duplicate : float;
  reorder : float;
  delay : float;
  max_delay : int;
}

let uniform rate =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Faults.uniform: rate not in [0,1]";
  { drop = rate; duplicate = rate; reorder = rate; delay = rate; max_delay = 3 }

type 'a generic_fault =
  | Dropped of 'a
  | Duplicated of 'a
  | Reordered of 'a
  | Delayed of 'a * int

type fault = Event.t generic_fault

type 'a generic_injection = {
  delivered : 'a list;
  faults : 'a generic_fault list;
}

type injection = Event.t generic_injection

let fires rng p = p > 0.0 && Prng.float rng 1.0 < p

(* Each surviving event carries a float arrival key, initially its input
   index. Delay pushes the key d(+0.5) positions later; a duplicate is a
   second entry k(+0.25) positions later; reorder swaps the keys of two
   adjacent survivors. A final stable sort by key yields the arrival
   order. The PRNG is consumed in one deterministic left-to-right pass.

   Polymorphic in the element type: the monitoring pipeline perturbs
   [Event.t] traces, the serve soak harness perturbs raw request
   lines — same faults, same seed discipline. *)
let inject_any ~seed profile events =
  let rng = Prng.create ~seed in
  let rev_faults = ref [] in
  let note f = rev_faults := f :: !rev_faults in
  let survivors =
    List.filteri
      (fun _ event ->
        if fires rng profile.drop then begin
          note (Dropped event);
          false
        end
        else true)
      events
  in
  let keyed = ref [] in
  List.iteri
    (fun i event ->
      let key = ref (float_of_int i) in
      if fires rng profile.duplicate then begin
        let gap = 1 + Prng.int rng (max 1 profile.max_delay) in
        note (Duplicated event);
        keyed := (ref (float_of_int (i + gap) +. 0.25), event) :: !keyed
      end;
      if fires rng profile.delay then begin
        let d = 1 + Prng.int rng (max 1 profile.max_delay) in
        note (Delayed (event, d));
        key := !key +. float_of_int d +. 0.5
      end;
      keyed := (key, event) :: !keyed)
    survivors;
  let keyed = List.rev !keyed in
  (* Adjacent transpositions on the original (un-delayed) neighbours. *)
  let arr = Array.of_list keyed in
  Array.iteri
    (fun i (key, event) ->
      if i + 1 < Array.length arr && fires rng profile.reorder then begin
        let key', _ = arr.(i + 1) in
        let tmp = !key in
        key := !key';
        key' := tmp;
        note (Reordered event)
      end)
    arr;
  let delivered =
    Array.to_list arr
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare !a !b)
    |> List.map snd
  in
  { delivered; faults = List.rev !rev_faults }

let inject ~seed profile events : injection = inject_any ~seed profile events

type fault_stats = {
  dropped : int;
  duplicated : int;
  reordered : int;
  delayed : int;
}

let stats faults =
  List.fold_left
    (fun acc -> function
      | Dropped _ -> { acc with dropped = acc.dropped + 1 }
      | Duplicated _ -> { acc with duplicated = acc.duplicated + 1 }
      | Reordered _ -> { acc with reordered = acc.reordered + 1 }
      | Delayed _ -> { acc with delayed = acc.delayed + 1 })
    { dropped = 0; duplicated = 0; reordered = 0; delayed = 0 }
    faults

let pp_stats ppf s =
  Format.fprintf ppf "%d dropped, %d duplicated, %d reordered, %d delayed"
    s.dropped s.duplicated s.reordered s.delayed

(* ------------------------------------------------------------------ *)
(* Deployment chaos *)

(* [down] maps a crashed node to the tick at which it comes back up. *)
type chaos = {
  deployment : Deployment.t;
  mutable now : int;
  down : (string, int) Hashtbl.t;
}

let chaos deployment = { deployment; now = 0; down = Hashtbl.create 8 }

let tick t =
  t.now <- t.now + 1;
  let gone =
    Hashtbl.fold
      (fun k until acc -> if until <= t.now then k :: acc else acc)
      t.down []
  in
  List.iter (Hashtbl.remove t.down) gone

let crash_node ~for_ticks t node =
  Hashtbl.replace t.down node (t.now + max 1 for_ticks)

let node_up t node = not (Hashtbl.mem t.down node)

let sync_stores t sim =
  List.iter
    (fun (store, (node : Deployment.node)) ->
      Store_sim.set_available sim ~store (node_up t node.id))
    (Deployment.store_placements t.deployment)

(* ------------------------------------------------------------------ *)
(* Bounded exponential backoff: waits of 1, 2, 4, 8, 8 ticks between
   six attempts. *)

let base_wait = 1
let max_wait = 8
let max_attempts = 6

type retry_outcome = { attempts : int; waited : int }

let with_backoff t op =
  let rec go attempt waited =
    match op () with
    | Ok _ as ok -> (ok, { attempts = attempt; waited })
    | Error msg when Store_sim.is_retriable msg && attempt < max_attempts ->
      let wait = min max_wait (base_wait * (1 lsl (attempt - 1))) in
      for _ = 1 to wait do
        tick t
      done;
      go (attempt + 1) (waited + wait)
    | Error _ as err -> (err, { attempts = attempt; waited })
  in
  go 1 0
