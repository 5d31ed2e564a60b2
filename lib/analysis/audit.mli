(** Runtime invariant auditor.

    The engine, netsim and clove layers call cheap hook points here; when
    auditing is disabled (the default) each hook is a single [bool ref]
    read away from a no-op, so the simulator pays essentially nothing on
    its hot paths.  When enabled, the auditor checks the simulator's core
    correctness claims while a scenario runs:

    - packet conservation: injected = delivered + dropped + in-flight;
    - monotonic simulated time per scheduler;
    - per-(flow, outer-port) FIFO ordering, i.e. a flowlet that sticks to
      one path is never reordered by the fabric;
    - Clove path-weight normalization: WRR weights sum to 1 after every
      update;
    - determinism: the same seeded scenario run twice produces the same
      observable digest.

    Violations are recorded; [violation_count], [ok] and [report] expose
    them to tests and CLIs.

    The auditor keeps global state: it audits one scenario at a time.
    Call [reset] before a fresh audited run. *)

type violation = { invariant : string; detail : string }

val on : bool ref
(** Master switch, read by every hook point.  Prefer [set_enabled] for
    writing; hooks in hot paths guard with [if !Audit.on then ...]. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Clear per-run state (counters, clock watermarks, FIFO streams) and
    all recorded violations. *)

(** {2 Violations} *)

val record_violation : invariant:string -> detail:string -> unit

val violation_count : unit -> int
val ok : unit -> bool
val report : unit -> string

(** {2 Packet conservation} *)

val note_injected : unit -> unit
(** A packet entered the network (host TX, or switch-originated reply). *)

val note_delivered : unit -> unit
(** A packet reached a host. *)

val note_dropped : reason:string -> unit
(** A packet left the network without being delivered. *)

val injected : unit -> int
val delivered : unit -> int

val check_packet_conservation : in_flight:int -> unit
(** At simulation end: records a violation unless
    injected = delivered + dropped + [in_flight].  After draining the
    event queue, pass [~in_flight:0]. *)

(** {2 Monotonic simulated time} *)

val note_clock : clock_id:int -> now_ns:int -> unit
(** Called by the scheduler as it dispatches each event; records a
    violation if the clock identified by [clock_id] moves backwards. *)

(** {2 Per-(flow, port) FIFO ordering} *)

val fifo_tx : stream:int -> port:int -> int
(** Next sequence number for the (flow, outer source port) stream, to be
    stamped on the departing packet; [-1] when auditing is disabled. *)

val fifo_rx : stream:int -> port:int -> seq:int -> unit
(** Records a violation if [seq] is not strictly greater than the last
    sequence number seen for the stream (drops make gaps, never
    reversals).  Negative [seq] (unstamped packet) is ignored. *)

(** {2 Path-weight normalization} *)

val check_weight_sum : label:string -> float array -> unit
(** Records a violation unless the weights sum to 1 (±1e-6).  Empty
    arrays are ignored (an uninstalled path table has no weights). *)

(** {2 Determinism} *)

val check_determinism : label:string -> run:(unit -> string) -> bool
(** Runs [run] twice, clearing the per-run state (but not the recorded
    violations) before each, and compares the
    returned digests; records a violation and returns [false] on
    mismatch.  Runs regardless of the enabled flag (it is an explicit
    check, not a hook). *)
