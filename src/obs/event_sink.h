// EventSink: the recording interface between protocol objects and any
// observer of the event stream.
//
// Protocol objects emit the paper's events (invoke/respond/commit/abort/
// initiate) from inside the critical section where the event takes
// effect, so whatever sits behind this interface observes a faithful
// computation. The implementation is the sharded FlightRecorder
// (obs/flight_recorder.h).
#pragma once

#include "hist/event.h"

namespace argus {

class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Called with the object's monitor held; implementations must be
  /// cheap and must not call back into the object.
  virtual void record(Event e) = 0;
};

}  // namespace argus
