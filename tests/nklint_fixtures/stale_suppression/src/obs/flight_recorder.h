// Fixture: flight-recorder event kinds.
enum class FlightEventType : uint8_t {
  kDrop = 1,
};
