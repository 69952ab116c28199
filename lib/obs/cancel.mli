(** Cooperative cancellation tokens with optional deadlines.

    A token is a single atomic flag plus an optional absolute deadline
    against the monotonic {!Clock}. Long-running loops (LTS frontier
    exploration, population chunk evaluation) poll {!cancelled} at
    natural round boundaries and unwind with {!Cancelled} — the work
    stops within one round, every domain observes the same token, and
    the engine that issued the work stays reusable.

    Polling cost is one [Atomic.get] plus, when a deadline is set, one
    no-alloc clock read — cheap enough for once-per-round checks, so
    callers should batch (poll every N items), not poll per element. *)

type t

type reason =
  | Client  (** {!cancel} was called — an explicit caller decision. *)
  | Deadline  (** The deadline passed before the work finished. *)

exception Cancelled of reason
(** Raised by {!check} (and by cooperative loops that use it). Carried
    through unchanged so the caller can distinguish an explicit cancel
    from a blown budget. *)

val create : unit -> t
(** Token without a deadline. *)

val with_budget_ms : int -> t
(** Token whose deadline is [now + budget] milliseconds. *)

val cancel : t -> unit
(** Idempotent; takes effect at the target loop's next poll. *)

val cancelled : t -> bool
val reason : t -> reason option
(** [None] while the token has not fired. A token that was both
    cancelled and past its deadline reports [Client]: the explicit
    signal wins. *)

val check : t -> unit
(** @raise Cancelled when the token has fired. *)
