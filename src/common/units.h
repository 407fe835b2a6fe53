// Strong unit types used throughout the UniServer libraries.
//
// Every physical quantity the ecosystem reasons about (supply voltage,
// clock frequency, refresh interval, power, energy, temperature) gets its
// own type so that a refresh interval can never be passed where a voltage
// is expected. The types are thin wrappers over double with value
// semantics and the usual affine/linear arithmetic.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>

namespace uniserver {

/// CRTP base for a linear quantity (supports +, -, scaling, ratio).
template <class Derived>
struct Quantity {
  double value{0.0};

  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value(v) {}

  friend constexpr Derived operator+(Derived a, Derived b) {
    return Derived{a.value + b.value};
  }
  friend constexpr Derived operator-(Derived a, Derived b) {
    return Derived{a.value - b.value};
  }
  friend constexpr Derived operator-(Derived a) { return Derived{-a.value}; }
  friend constexpr Derived operator*(Derived a, double s) {
    return Derived{a.value * s};
  }
  friend constexpr Derived operator*(double s, Derived a) {
    return Derived{a.value * s};
  }
  friend constexpr Derived operator/(Derived a, double s) {
    return Derived{a.value / s};
  }
  /// Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Derived a, Derived b) {
    return a.value / b.value;
  }
  friend constexpr auto operator<=>(Derived a, Derived b) {
    return a.value <=> b.value;
  }
  friend constexpr bool operator==(Derived a, Derived b) {
    return a.value == b.value;
  }
  Derived& operator+=(Derived b) {
    value += b.value;
    return self();
  }
  Derived& operator-=(Derived b) {
    value -= b.value;
    return self();
  }
  Derived& operator*=(double s) {
    value *= s;
    return self();
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

/// Supply voltage in volts.
struct Volt : Quantity<Volt> {
  using Quantity::Quantity;
  static constexpr Volt from_mv(double mv) { return Volt{mv / 1000.0}; }
  constexpr double millivolts() const { return value * 1000.0; }
};

/// Clock frequency in megahertz.
struct MegaHertz : Quantity<MegaHertz> {
  using Quantity::Quantity;
  static constexpr MegaHertz from_ghz(double ghz) {
    return MegaHertz{ghz * 1000.0};
  }
};

/// Time span in seconds (used for refresh intervals, epochs, latencies).
struct Seconds : Quantity<Seconds> {
  using Quantity::Quantity;
  static constexpr Seconds from_ms(double ms) { return Seconds{ms / 1e3}; }
  static constexpr Seconds from_us(double us) { return Seconds{us / 1e6}; }
  constexpr double millis() const { return value * 1e3; }
  constexpr double micros() const { return value * 1e6; }
};

/// Power in watts.
struct Watt : Quantity<Watt> {
  using Quantity::Quantity;
};

/// Energy in joules.
struct Joule : Quantity<Joule> {
  using Quantity::Quantity;
  constexpr double kwh() const { return value / 3.6e6; }
  static constexpr Joule from_kwh(double kwh) { return Joule{kwh * 3.6e6}; }
};

/// Temperature in degrees Celsius (affine; differences are plain doubles).
struct Celsius {
  double value{0.0};
  constexpr Celsius() = default;
  constexpr explicit Celsius(double v) : value(v) {}
  friend constexpr double operator-(Celsius a, Celsius b) {
    return a.value - b.value;
  }
  friend constexpr Celsius operator+(Celsius a, double dt) {
    return Celsius{a.value + dt};
  }
  friend constexpr auto operator<=>(Celsius a, Celsius b) = default;
};

/// Energy = power x time.
constexpr Joule operator*(Watt p, Seconds t) { return Joule{p.value * t.value}; }
constexpr Joule operator*(Seconds t, Watt p) { return p * t; }
/// Average power = energy / time.
constexpr Watt operator/(Joule e, Seconds t) { return Watt{e.value / t.value}; }

/// Money in US dollars (for the TCO model).
struct Dollar : Quantity<Dollar> {
  using Quantity::Quantity;
};

inline std::ostream& operator<<(std::ostream& os, Volt v) {
  return os << v.value << " V";
}
inline std::ostream& operator<<(std::ostream& os, MegaHertz f) {
  return os << f.value << " MHz";
}
inline std::ostream& operator<<(std::ostream& os, Seconds s) {
  return os << s.value << " s";
}
inline std::ostream& operator<<(std::ostream& os, Watt w) {
  return os << w.value << " W";
}
inline std::ostream& operator<<(std::ostream& os, Joule j) {
  return os << j.value << " J";
}
inline std::ostream& operator<<(std::ostream& os, Celsius c) {
  return os << c.value << " C";
}
inline std::ostream& operator<<(std::ostream& os, Dollar d) {
  return os << "$" << d.value;
}

namespace literals {
constexpr Volt operator""_V(long double v) {
  return Volt{static_cast<double>(v)};
}
constexpr Volt operator""_mV(long double v) {
  return Volt::from_mv(static_cast<double>(v));
}
constexpr Volt operator""_mV(unsigned long long v) {
  return Volt::from_mv(static_cast<double>(v));
}
constexpr MegaHertz operator""_MHz(long double v) {
  return MegaHertz{static_cast<double>(v)};
}
constexpr MegaHertz operator""_MHz(unsigned long long v) {
  return MegaHertz{static_cast<double>(v)};
}
constexpr MegaHertz operator""_GHz(long double v) {
  return MegaHertz::from_ghz(static_cast<double>(v));
}
constexpr Seconds operator""_s(long double v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_ms(long double v) {
  return Seconds::from_ms(static_cast<double>(v));
}
constexpr Seconds operator""_ms(unsigned long long v) {
  return Seconds::from_ms(static_cast<double>(v));
}
constexpr Watt operator""_W(long double v) {
  return Watt{static_cast<double>(v)};
}
constexpr Watt operator""_W(unsigned long long v) {
  return Watt{static_cast<double>(v)};
}
constexpr Joule operator""_J(long double v) {
  return Joule{static_cast<double>(v)};
}
constexpr Celsius operator""_C(long double v) {
  return Celsius{static_cast<double>(v)};
}
constexpr Celsius operator""_C(unsigned long long v) {
  return Celsius{static_cast<double>(v)};
}
}  // namespace literals

}  // namespace uniserver
