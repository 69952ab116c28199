type reason = Client | Deadline

type t = { flag : bool Atomic.t; deadline_ns : int }

exception Cancelled of reason

let create () = { flag = Atomic.make false; deadline_ns = max_int }

let with_budget_ms ms =
  { flag = Atomic.make false; deadline_ns = Clock.now_ns () + (ms * 1_000_000) }

let cancel t = Atomic.set t.flag true

let reason t =
  if Atomic.get t.flag then Some Client
  else if t.deadline_ns <> max_int && Clock.now_ns () >= t.deadline_ns then
    Some Deadline
  else None

let cancelled t = reason t <> None

let check t =
  match reason t with None -> () | Some r -> raise (Cancelled r)
