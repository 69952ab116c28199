module Prng = Mdp_prelude.Prng

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

type 'a fault =
  | Dropped of 'a
  | Duplicated of 'a
  | Reordered of 'a
  | Delayed of 'a * int

type 'a injection = { delivered : 'a list; faults : 'a fault list }

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
