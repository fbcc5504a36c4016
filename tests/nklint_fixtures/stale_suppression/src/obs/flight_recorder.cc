// Fixture: event-kind name switch.
#include "src/obs/flight_recorder.h"
const char* FlightEventName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kDrop:
      return "DROP";
  }
  return "?";
}
