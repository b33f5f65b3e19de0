(** The [wlan-mcast-ev 1] wire protocol of the serve daemon: versioned,
    length-prefixed line frames carrying network events in and
    association decisions out.

    {2 Framing}

    Every message travels as one frame:
    [<len> <payload>\n] — the payload's byte length in decimal, one
    space, the payload (which must not contain a newline), a newline.
    The terminating newline is {e not} counted in [len]. The redundancy
    (explicit length {e and} line terminator) is what lets the decoder
    detect truncation and resynchronize after garbage: a frame whose
    declared length does not land on a newline is corrupt, and recovery
    skips to the next newline.

    {2 Payloads}

    In ({!input}): [hello wlan-mcast-ev 1] (required first frame), then
    timestamped events [at <t> arrive <u>], [at <t> depart <u>],
    [at <t> ap-fail <a>], [at <t> ap-recover <a>],
    [at <t> set-rate <u> <a> <r>], [at <t> drift <u> <steps>], and the
    control messages [flush], [snapshot], [bye].

    Out ({!output}): [ok wlan-mcast-ev 1], per-user association deltas
    [delta <t> <user> <from> <to>] ([-1] = unserved), per-batch
    quiescence summaries [settled <t> events <n> ...], snapshot replies
    [state <t> ...] and structured [error <code> <detail>] replies.

    Floats print as [%.17g] (the {!Wlan_model.Scenario_io} convention),
    so every timestamp and rate round-trips bit-exactly. *)

val version : int
val magic : string

(** {1 Messages} *)

(** The network deltas, re-exported from the one batch applier. *)
type event = Mcast_core.Distributed.Online.delta =
  | Arrive of { user : int }
  | Depart of { user : int }
  | Ap_fail of { ap : int }
  | Ap_recover of { ap : int }
  | Set_rate of { user : int; ap : int; rate : float }
  | Drift of { user : int; steps : int }

type input =
  | Hello of { version : int }
  | Event of { time : float; event : event }
  | Flush  (** settle the pending batch now *)
  | Snapshot  (** settle, then report network state + fresh baselines *)
  | Bye  (** settle and close the session *)

type error_code =
  | Bad_frame  (** malformed length prefix or missing terminator *)
  | Oversize  (** declared length beyond the decoder's limit *)
  | Truncated  (** the stream ended inside a frame *)
  | Bad_input  (** well-framed but unparseable payload *)
  | Bad_hello  (** wrong magic or protocol version in the handshake *)
  | Expected_hello  (** an event before the handshake *)
  | Out_of_range  (** user/AP index beyond the scenario's topology *)
  | Non_monotone  (** timestamp earlier than the current batch *)
  | Closed  (** input after [bye] *)

(** Kebab-case wire name, e.g. [non-monotone]. *)
val error_code_name : error_code -> string

type output =
  | Ok_hello of { version : int }
  | Delta of { time : float; user : int; from_ap : int; to_ap : int }
      (** one user's serving AP changed while settling; [-1] = none *)
  | Settled of {
      time : float;
      events : int;  (** script events applied in this batch *)
      interrupted : int;  (** sessions forcibly cut by the deltas *)
      rounds : int;
      moves : int;
      reassociated : int;
      deltas : int;  (** [Delta] frames emitted just before this *)
      forced : bool;  (** settled by backpressure, not time/flush *)
      converged : bool;
      oscillated : bool;
      total_load : float;
      max_load : float;
    }
  | State of {
      time : float;
      present : int;
      served : int;
      total_load : float;
      max_load : float;
      fresh_total : float;  (** fresh sequential solve of the instance *)
      fresh_max : float;
      ssa_total : float;  (** strongest-signal baseline *)
      ssa_max : float;
      digest : string;  (** {!Server.state_digest} of the live state *)
    }
  | Error of { code : error_code; detail : string }

(** {1 Rendering and parsing} *)

(** Canonical payload line (no frame, no newline). *)
val render_input : input -> string

(** Parse one payload line. Total: never raises; unparseable payloads
    come back as [Error (Bad_input | Bad_hello, detail)]. Validates that
    times are finite and non-negative and rates finite and
    non-negative. *)
val parse_input : string -> (input, error_code * string) result

val render_output : output -> string

(** [frame payload] = ["<len> <payload>\n"].
    @raise Invalid_argument if [payload] contains a newline. *)
val frame : string -> string

val frame_into : Buffer.t -> string -> unit

(** {1 Incremental decoder}

    Feed arbitrary byte chunks, pull frames. Total: no input sequence
    raises. After a corrupt frame the decoder skips to the next newline
    and resumes, so one bad frame costs at most one message. *)
module Decoder : sig
  type t

  type item =
    | Frame of string  (** a well-framed payload (not yet parsed) *)
    | Corrupt of error_code * string
        (** bad framing ([Bad_frame] or [Oversize]); the decoder has
            already resynchronized *)

  (** A declared payload length is capped at 65,536 bytes: a larger
      declaration is rejected as [Oversize] {e without} buffering the
      body. *)
  val create : unit -> t

  val feed : t -> string -> unit

  (** Next decoded item, [None] = need more input. *)
  val next : t -> item option

  (** [true] iff all fed input has been consumed as complete frames —
      at end of stream, [false] means the final frame was truncated. *)
  val at_boundary : t -> bool
end
